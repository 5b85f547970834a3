package model

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
)

// FuzzExpander checks the packed codec and the expander on 3–5 node
// small-shifting and passive clusters, with the big-bang rule on and off.
// The fuzzed bytes are read twice:
//
//   - as an encoding (cut or zero-padded to the model's width):
//     decoding it and encoding the result gives the input back, up to
//     the zero padding past the last field, and decoding that again
//     gives the same state — decode∘encode is the identity;
//   - as a walk: from the initial state, each byte picks one successor
//     to step to. Along the walk every successor Expander.Successors
//     returns re-encodes to itself, and Canonicalize is idempotent on
//     it.
//
// Seeds are the configurations' initial states.
func FuzzExpander(f *testing.F) {
	type rig struct {
		m   *Model
		exp mc.CanonicalExpander
	}
	var rigs []rig
	for _, a := range []guardian.Authority{guardian.AuthorityPassive, guardian.AuthoritySmallShift} {
		for _, nobb := range []bool{false, true} {
			for n := 3; n <= 5; n++ {
				m, err := New(Config{Nodes: n, Authority: a, DisableBigBang: nobb})
				if err != nil {
					f.Fatal(err)
				}
				rigs = append(rigs, rig{m, m.NewReducedExpander()})
			}
		}
	}
	for i, r := range rigs {
		f.Add(uint8(i), []byte(r.m.Initial()[0]))
	}
	var mu sync.Mutex // the expanders are per-rig scratch
	f.Fuzz(func(t *testing.T, pick uint8, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		r := rigs[int(pick)%len(rigs)]
		m := r.m
		name := func() string {
			return fmt.Sprintf("%d nodes, %v, nobigbang=%v", m.cfg.Nodes, m.cfg.Authority, m.cfg.DisableBigBang)
		}

		size := binarySize(m.cfg.Nodes, m.cfg.Couplers)
		enc := make([]byte, size)
		copy(enc, data)
		s := m.DecodeBinary(mc.State(enc))
		re := []byte(m.EncodeBinary(s))
		// The encoding's last byte carries zero padding past the final
		// field; the codec writes it zero and ignores it on read.
		want := append([]byte(nil), enc...)
		if pad := size*8 - (bitsPerNode*m.cfg.Nodes + bitsPerCoupler*m.cfg.Couplers + bitsOOS); pad > 0 {
			want[size-1] &^= 1<<pad - 1
		}
		if !bytes.Equal(re, want) {
			t.Fatalf("%s: encode(decode(%x)) = %x, want %x", name(), enc, re, want)
		}
		if again := m.DecodeBinary(mc.State(re)); !reflect.DeepEqual(again, s) {
			t.Fatalf("%s: decode(encode(%+v)) = %+v", name(), s, again)
		}

		cur := []byte(m.Initial()[0])
		for step, b := range data {
			if step == 64 {
				break
			}
			succs := r.exp.Successors(cur)
			if len(succs) == 0 {
				break
			}
			for _, succ := range succs {
				if re := []byte(m.EncodeBinary(m.DecodeBinary(mc.State(succ)))); !bytes.Equal(re, succ) {
					t.Fatalf("%s step %d: successor %x re-encodes to %x", name(), step, succ, re)
				}
				canon := append([]byte(nil), succ...)
				r.exp.Canonicalize(canon)
				twice := append([]byte(nil), canon...)
				r.exp.Canonicalize(twice)
				if !bytes.Equal(twice, canon) {
					t.Fatalf("%s step %d: Canonicalize(%x) = %x, but Canonicalize of that = %x", name(), step, succ, canon, twice)
				}
			}
			cur = append([]byte(nil), succs[int(b)%len(succs)]...)
		}
	})
}
