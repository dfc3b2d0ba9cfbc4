type event = { time : float; category : string; message : string }
type sink = event -> unit

let emit sinks ~time ~category message =
  match sinks with
  | [] -> ()
  | l ->
    let e = { time; category; message } in
    List.iter (fun s -> s e) l

let emitf sinks ~time ~category fmt =
  (* The mli promises the message is only built when there is a sink;
     [kasprintf] would format eagerly, so bail to [ikfprintf] when idle. *)
  if sinks <> [] then
    Format.kasprintf (fun message -> emit sinks ~time ~category message) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let printing_sink ?(out = Format.std_formatter) () e =
  Format.fprintf out "%10.4f  [%-12s] %s@." e.time e.category e.message

let collecting_sink () =
  let acc = ref [] in
  let sink e = acc := e :: !acc in
  (sink, fun () -> List.rev !acc)
