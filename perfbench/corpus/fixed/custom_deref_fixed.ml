type handle
type domid
type config

external domain_create : handle -> domid -> config -> int = "stub_xc_domain_create"
