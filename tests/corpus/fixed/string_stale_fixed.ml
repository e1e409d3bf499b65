external string_head : string -> bytes = "stub_string_head"
