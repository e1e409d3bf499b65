type handle

external init : unit -> handle = "stub_eventchn_init"
