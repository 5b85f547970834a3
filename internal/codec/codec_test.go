package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var errTest = errors.New("test: corrupt")

// refused asserts r's error is set and wraps errTest, and that it is
// sticky: every read after it returns a zero value.
func refused(t *testing.T, r *Reader, what string) {
	t.Helper()
	if !errors.Is(r.Err(), errTest) {
		t.Fatalf("%s: error %v, want one wrapping errTest", what, r.Err())
	}
	if r.Uvarint() != 0 || r.Byte() != 0 || r.Count() != 0 || r.Bytes() != nil || r.View(0) != nil {
		t.Fatalf("%s: a read after the error returned a value", what)
	}
	if !errors.Is(r.Done(), errTest) {
		t.Fatalf("%s: Done is %v", what, r.Done())
	}
}

func TestReaderVarintRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    []byte
	}{
		{"empty", nil},
		{"truncated", []byte{0x80}},
		{"truncated long", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81}},
		{"overflowing", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
		{"eleven bytes", bytes.Repeat([]byte{0x80}, 11)},
	} {
		r := NewReader(tc.p, errTest)
		if v := r.Uvarint(); v != 0 {
			t.Errorf("%s: read %d, want 0", tc.name, v)
		}
		refused(t, &r, tc.name)
	}
	r := NewReader(AppendUvarint(nil, 0, 127, 128, 1<<63), errTest)
	for _, want := range []uint64{0, 127, 128, 1 << 63} {
		if got := r.Uvarint(); got != want {
			t.Fatalf("read %d, want %d", got, want)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderGuards(t *testing.T) {
	// A count may be as large as the bytes left, no larger.
	r := NewReader(append(AppendUvarint(nil, 3), 1, 2, 3), errTest)
	if n := r.Count(); n != 3 || r.Err() != nil {
		t.Fatalf("count %d, %v; want 3", n, r.Err())
	}
	r = NewReader(append(AppendUvarint(nil, 4), 1, 2, 3), errTest)
	if n := r.Count(); n != 0 {
		t.Fatalf("oversized count read as %d", n)
	}
	refused(t, &r, "oversized count")
	r = NewReader(AppendUvarint(nil, 1<<62), errTest)
	r.Count()
	refused(t, &r, "huge count")

	// A length likewise.
	r = NewReader(AppendBytes(nil, "abc"), errTest)
	if b := r.Bytes(); string(b) != "abc" || r.Done() != nil {
		t.Fatalf("bytes %q, %v", b, r.Err())
	}
	r = NewReader(append(AppendUvarint(nil, 4), "abc"...), errTest)
	if b := r.Bytes(); b != nil {
		t.Fatalf("oversized length read %q", b)
	}
	refused(t, &r, "oversized length")
	r = NewReader([]byte("ab"), errTest)
	r.View(3)
	refused(t, &r, "oversized view")
	r = NewReader(nil, errTest)
	r.Byte()
	refused(t, &r, "byte past the end")
}

func TestReaderDoneRefusesTrailingBytes(t *testing.T) {
	r := NewReader(AppendUvarint(nil, 7, 8), errTest)
	r.Uvarint()
	if err := r.Done(); !errors.Is(err, errTest) {
		t.Fatalf("Done with a byte left: %v", err)
	}
	r = NewReader(nil, errTest)
	if err := r.Done(); err != nil {
		t.Fatalf("Done on an empty input: %v", err)
	}
}

// TestReaderViewsAreCapped: appending to a returned view reallocates and
// leaves the input unchanged.
func TestReaderViewsAreCapped(t *testing.T) {
	in := AppendBytes(AppendBytes(nil, "ab"), "cd")
	orig := bytes.Clone(in)
	r := NewReader(in, errTest)
	first := r.Bytes()
	if cap(first) != len(first) {
		t.Fatalf("view of %d bytes has capacity %d", len(first), cap(first))
	}
	first = append(first, "XYZ"...)
	fixed := r.View(1)
	_ = append(fixed, 'Q')
	if !bytes.Equal(in, orig) || string(first) != "abXYZ" {
		t.Fatalf("appending to views changed the input: %q, want %q", in, orig)
	}
}

func TestFormatRoundTripAndRefusals(t *testing.T) {
	f := &Format{Magic: "TESTFMT\x00", Version: 3, Corrupt: errTest}
	dir := t.TempDir()
	path := filepath.Join(dir, "file")
	body := bytes.Repeat([]byte("arena"), 30000) // past the write buffer
	write := func(p []byte) error {
		return f.WriteFile(path, 2, func(w Writer) {
			w.Uvarint(1 << 40)
			w.Bytes(p)
		})
	}
	if err := write(body); err != nil {
		t.Fatal(err)
	}
	r, sum, err := f.ReadFile(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v, b := r.Uvarint(), r.Bytes(); v != 1<<40 || !bytes.Equal(b, body) || r.Done() != nil {
		t.Fatalf("read back %d, %d bytes, %v", v, len(b), r.Err())
	}
	if got, err := f.Sum(path); err != nil || got != sum {
		t.Fatalf("Sum %x, %v; ReadFile's %x", got, err, sum)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A write failing at any point leaves the file and no temp file.
	f.Wrap = func(w io.Writer) io.Writer { return failWriter{w} }
	if err := write([]byte("other")); !errors.Is(err, errWrap) {
		t.Fatalf("failed write: %v", err)
	}
	f.Wrap = nil
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
		t.Fatal("a failed write changed the file")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("a failed write left %d files", len(entries))
	}

	for _, tc := range []struct {
		name string
		mod  func([]byte) []byte
		kind uint64
	}{
		{"checksum", func(p []byte) []byte { p[len(p)/2] ^= 1; return p }, 2},
		{"kind", func(p []byte) []byte { return p }, 1},
		{"short", func(p []byte) []byte { return p[:len(f.Magic)+7] }, 2},
		{"magic", func(p []byte) []byte { return resum(append([]byte("OTHERFM\x00"), p[8:len(p)-8]...)) }, 2},
		{"version", func(p []byte) []byte { p[8]++; return resum(p[:len(p)-8]) }, 2},
	} {
		if err := os.WriteFile(path, tc.mod(bytes.Clone(data)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.ReadFile(path, tc.kind); !errors.Is(err, errTest) {
			t.Errorf("%s: %v, want errTest", tc.name, err)
		}
	}
	if _, _, err := f.ReadFile(filepath.Join(dir, "missing"), 2); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}

var errWrap = errors.New("injected")

// failWriter fails every write.
type failWriter struct{ io.Writer }

func (failWriter) Write([]byte) (int, error) { return 0, errWrap }

// resum closes payload with its own checksum, as WriteFile would.
func resum(payload []byte) []byte {
	h := fnv.New64a()
	h.Write(payload)
	return binary.BigEndian.AppendUint64(payload, h.Sum64())
}

// FuzzReader drives a Reader over arbitrary bytes with a read sequence
// the input itself picks: it must never panic, never return a view past
// the input or a count past the bytes left, refuse only with its
// sentinel, and accept exactly what the appenders wrote.
func FuzzReader(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x80}, uint64(1<<63))
	f.Add(bytes.Repeat([]byte{0xff}, 11), uint64(300))
	f.Add(AppendBytes(AppendUvarint([]byte{1, 2, 3}, 1<<20), "view"), uint64(127))
	f.Fuzz(func(t *testing.T, p []byte, v uint64) {
		r := NewReader(p, errTest)
		for r.Len() > 0 && r.Err() == nil {
			switch r.Byte() % 5 {
			case 0:
				r.Uvarint()
			case 1:
				if n := r.Count(); n > r.Len() {
					t.Fatalf("count %d past the %d bytes left", n, r.Len())
				}
			case 2:
				if b := r.Bytes(); cap(b) != len(b) {
					t.Fatal("uncapped view")
				}
			case 3:
				r.View(uint64(r.Byte() % 8))
			case 4:
				r.Byte()
			}
			if r.Len() < 0 || r.Len() > len(p) {
				t.Fatalf("%d bytes left of %d", r.Len(), len(p))
			}
		}
		if r.Err() != nil && !errors.Is(r.Err(), errTest) {
			t.Fatalf("error %v does not wrap the sentinel", r.Err())
		}

		enc := AppendBytes(AppendUvarint(nil, v), p)
		r = NewReader(enc, errTest)
		if got, b := r.Uvarint(), r.Bytes(); got != v || !bytes.Equal(b, p) || r.Done() != nil {
			t.Fatalf("round trip: %d %q %v; want %d %q", got, b, r.Err(), v, p)
		}
	})
}
