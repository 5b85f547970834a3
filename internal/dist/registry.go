package dist

// The model registry: how a model crosses a process boundary.
//
// A worker process cannot receive a Go value, so models travel as a
// (name, payload) spec — mc models that implement SpeccedModel produce
// one, and both coordinator and worker binaries register a builder for
// each name (cmd/ttamc registers "tta"; tests register fixtures). The
// builder returns the model AND its invariants: closures cannot cross
// the wire either, so the contract is that a check run on a Checker
// passes the same invariant the registered builder would produce — which
// is exactly how every CLI path already constructs its checks
// (m.PropertyBytes()).

import (
	"fmt"
	"sort"
	"sync"

	"ttastar/internal/mc"
)

// SpeccedModel is implemented by models that can serialize their
// identity for a worker process to rebuild (model.Model implements it).
type SpeccedModel interface {
	DistSpec() (name, payload string)
}

// ModelSpec is a rebuilt model with its canonical invariants.
type ModelSpec struct {
	Model mc.Model
	// StInv / TrInv are the model's canonical state / transition
	// invariants; either may be nil when the model does not define one.
	StInv mc.StateInvariantBytes
	TrInv mc.TransitionInvariantBytes
}

// Builder rebuilds a model from its spec payload.
type Builder func(payload string) (ModelSpec, error)

var (
	registryMu sync.Mutex
	registry   = map[string]Builder{}
)

// RegisterModel installs a builder for a spec name. Both the coordinator
// and the worker binary must register the same names before checking;
// re-registering a name replaces the builder (tests).
func RegisterModel(name string, b Builder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = b
}

// buildModel resolves a spec through the registry.
func buildModel(name, payload string) (ModelSpec, error) {
	registryMu.Lock()
	b, ok := registry[name]
	registryMu.Unlock()
	if !ok {
		registryMu.Lock()
		names := make([]string, 0, len(registry))
		for n := range registry {
			names = append(names, n)
		}
		registryMu.Unlock()
		sort.Strings(names)
		return ModelSpec{}, fmt.Errorf("dist: no registered model builder %q (have %v)", name, names)
	}
	return b(payload)
}
