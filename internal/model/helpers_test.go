package model

// Functions only the tests call.

import (
	"ttastar/internal/mc"
)

// Property is the §5.1 correctness criterion as a transition invariant: no
// node in active or passive may move to freeze. (Nodes are modeled not to
// fail, so any such freeze is caused by the single modeled coupler fault.)
func (m *Model) Property() mc.TransitionInvariant {
	return func(from, to mc.State) bool {
		f := m.Decode(from)
		t := m.Decode(to)
		for i := range f.Nodes {
			if f.Nodes[i].Phase.Integrated() && t.Nodes[i].Phase == PhaseFreeze {
				return false
			}
		}
		return true
	}
}
