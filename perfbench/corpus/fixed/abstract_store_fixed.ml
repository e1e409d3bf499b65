type handle
type intf

external map_foreign_range : handle -> int -> int -> nativeint -> intf
  = "stub_map_foreign_range"
