/* Clocks for the benchmark: CLOCK_MONOTONIC for every wall-clock reading
   and CLOCK_THREAD_CPUTIME_ID to tell a domain's own work from time it
   spent blocked. Both return nanoseconds as untagged ints and never
   allocate, so the per-event trace hook stays allocation-free. */

#define _POSIX_C_SOURCE 200809L
#include <time.h>
#include <caml/mlvalues.h>

static intnat read_ns(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

intnat perfbench_monotonic_ns(value unit)
{
  (void)unit;
  return read_ns(CLOCK_MONOTONIC);
}

value perfbench_monotonic_ns_byte(value unit)
{
  return Val_long(perfbench_monotonic_ns(unit));
}

intnat perfbench_thread_cpu_ns(value unit)
{
  (void)unit;
  return read_ns(CLOCK_THREAD_CPUTIME_ID);
}

value perfbench_thread_cpu_ns_byte(value unit)
{
  return Val_long(perfbench_thread_cpu_ns(unit));
}
