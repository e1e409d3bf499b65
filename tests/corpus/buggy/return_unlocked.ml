type handle

external domain_pause : handle -> int -> bool = "stub_xc_domain_pause"
