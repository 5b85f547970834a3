package frame

// Functions only the tests call.

// Explicit reports whether the kind carries its C-state explicitly.
func (k Kind) Explicit() bool { return k == KindColdStart || k == KindI || k == KindX }
