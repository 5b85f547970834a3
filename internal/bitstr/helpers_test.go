package bitstr

// Functions only the tests call.

// Bytes returns the packed representation, final partial byte zero-padded.
// The returned slice is a copy.
func (s *String) Bytes() []byte {
	out := make([]byte, len(s.data))
	copy(out, s.data)
	return out
}
