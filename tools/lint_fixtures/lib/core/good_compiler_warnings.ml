(* Source the compiler lexes and parses with warnings: a comment opened
   right after a parenthesis (warning 1) and an illegal backslash escape
   (warning 14). psi_lint must analyze it and print none of them. *)

let product = ( * ) 2 3
let tagged = 1 (*) a comment, not the operator *)
let escaped = "a\qb"
