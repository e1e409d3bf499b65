type arch_physinfo_cap_flags

external get_arch_caps : unit -> arch_physinfo_cap_flags = "stub_get_arch_caps"
