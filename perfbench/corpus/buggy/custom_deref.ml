type handle

external notify : handle -> int -> unit = "stub_eventchn_notify"
