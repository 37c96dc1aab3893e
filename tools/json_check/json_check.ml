exception Invalid

let max_depth = 64

let valid s =
  let n = String.length s in
  let pos = ref 0 in
  (* '\000' past the end: never valid outside a string, and a control
     byte (hence rejected) inside one, so it needs no special case. *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let adv () = incr pos in
  let expect c = if peek () = c then adv () else raise Invalid in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        adv ();
        skip_ws ()
    | _ -> ()
  in
  let is_digit c = c >= '0' && c <= '9' in
  let hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') in
  let digits () =
    if not (is_digit (peek ())) then raise Invalid;
    while is_digit (peek ()) do
      adv ()
    done
  in
  let number () =
    if peek () = '-' then adv ();
    (match peek () with
    | '0' -> adv ()
    | '1' .. '9' -> digits ()
    | _ -> raise Invalid);
    if peek () = '.' then begin
      adv ();
      digits ()
    end;
    match peek () with
    | 'e' | 'E' ->
        adv ();
        (match peek () with '+' | '-' -> adv () | _ -> ());
        digits ()
    | _ -> ()
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> adv ()
      | '\\' ->
          adv ();
          (match peek () with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> adv ()
          | 'u' ->
              adv ();
              for _ = 1 to 4 do
                if hex (peek ()) then adv () else raise Invalid
              done
          | _ -> raise Invalid);
          go ()
      | c when Char.code c < 0x20 -> raise Invalid
      | _ ->
          adv ();
          go ()
    in
    go ()
  in
  let rec value depth =
    skip_ws ();
    match peek () with
    | '{' ->
        container depth '}' (fun () ->
            string_lit ();
            skip_ws ();
            expect ':';
            value (depth + 1))
    | '[' -> container depth ']' (fun () -> value (depth + 1))
    | '"' -> string_lit ()
    | 't' -> String.iter expect "true"
    | 'f' -> String.iter expect "false"
    | 'n' -> String.iter expect "null"
    | _ -> number ()
  and container depth close item =
    if depth >= max_depth then raise Invalid;
    adv ();
    skip_ws ();
    if peek () = close then adv ()
    else
      let rec go () =
        skip_ws ();
        item ();
        skip_ws ();
        match peek () with
        | ',' ->
            adv ();
            go ()
        | c when c = close -> adv ()
        | _ -> raise Invalid
      in
      go ()
  in
  match
    value 0;
    skip_ws ()
  with
  | () -> !pos = n
  | exception Invalid -> false
