// Package codec is the byte format of every process and file boundary:
// the distributed checker's control and mesh frames, the model checker's
// checkpoint chain and the fault-injection campaign checkpoint.
//
// Integers are uvarints and byte strings are uvarint-length-prefixed.
// Encoders append to a []byte (AppendUvarint, AppendBytes), or stream
// through a Writer when the body is too large to build in memory. A
// Reader parses with length guards and a sticky error that wraps the
// sentinel its caller names, so a decoder reads straight through and
// checks once: a truncated or overflowing varint reads as 0, a count or
// length past the remaining bytes is refused before it sizes anything,
// and Done refuses trailing bytes. Byte results are views of the input,
// capped so that appending to one reallocates instead of writing over
// the input; a caller that keeps one past the input's life copies it.
//
// A Format is one file envelope:
//
//	file := magic  version:uvarint  kind:uvarint  body  sum:u64be
//
// where sum is the FNV-64a hash of everything before it. Files are
// written to a temp file in the target directory and renamed into place,
// so a crash mid-write never leaves a truncated file where a valid one
// was.
package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
)

// AppendUvarint appends each v to b as a uvarint.
func AppendUvarint(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// AppendBytes appends p to b, prefixed by its length.
func AppendBytes[T string | []byte](b []byte, p T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// Reader parses a byte slice. Its error is sticky: once set, every read
// returns a zero value.
type Reader struct {
	p       []byte
	off     int
	err     error
	corrupt error
}

// NewReader reads p; every refusal wraps corrupt.
func NewReader(p []byte, corrupt error) Reader { return Reader{p: p, corrupt: corrupt} }

// Fail sets the error, unless one is set already, to corrupt annotated
// by the formatted message.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.corrupt, fmt.Sprintf(format, args...))
	}
}

// Err is the first refusal, or nil.
func (r *Reader) Err() error { return r.err }

// Len is the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.p) - r.off }

// Uvarint reads a uvarint; a truncated or overflowing one reads as 0.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 {
		r.Fail("truncated")
		return 0
	}
	r.off += n
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.View(1); b != nil {
		return b[0]
	}
	return 0
}

// Count reads an element count, refusing one larger than the bytes left
// (every element costs at least one).
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.Fail("count %d exceeds the %d bytes left", n, r.Len())
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string as a view.
func (r *Reader) Bytes() []byte { return r.View(r.Uvarint()) }

// View reads the next n bytes as a view; nil once the error is set.
func (r *Reader) View(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()) {
		r.Fail("length %d exceeds the %d bytes left", n, r.Len())
		return nil
	}
	end := r.off + int(n)
	v := r.p[r.off:end:end]
	r.off = end
	return v
}

// Done is the reader's error, or a refusal of bytes left unread.
func (r *Reader) Done() error {
	if r.Len() != 0 {
		r.Fail("%d trailing bytes", r.Len())
	}
	return r.err
}

// Writer streams a file body. Its error is its bufio.Writer's, which is
// sticky, so a body writes straight through and WriteFile checks once.
type Writer struct{ b *bufio.Writer }

// Uvarint writes v as a uvarint.
func (w Writer) Uvarint(v uint64) { w.b.Write(binary.AppendUvarint(w.b.AvailableBuffer(), v)) }

// Bytes writes p, prefixed by its length.
func (w Writer) Bytes(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.b.Write(p)
}

// Format is a file envelope: its magic, its version, the sentinel its
// refusals wrap, and a test seam.
type Format struct {
	Magic   string
	Version uint64
	Corrupt error
	// Wrap, when non-nil, routes every byte bound for a temp file through
	// the writer it returns, so crash tests can fail a write at any
	// offset without touching the filesystem.
	Wrap func(io.Writer) io.Writer
}

// WriteFile writes a file of the given kind whose body is what body
// writes: to a temp file in path's directory, renamed over path once
// complete. A failed write leaves path as it was and no temp file.
func (f *Format) WriteFile(path string, kind uint64, body func(w Writer)) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	var out io.Writer = tmp
	if f.Wrap != nil {
		out = f.Wrap(tmp)
	}
	h := fnv.New64a()
	w := Writer{bufio.NewWriterSize(io.MultiWriter(out, h), 1<<16)}
	w.b.WriteString(f.Magic)
	w.Uvarint(f.Version)
	w.Uvarint(kind)
	body(w)
	err = w.b.Flush()
	if err == nil {
		_, err = out.Write(binary.BigEndian.AppendUint64(nil, h.Sum64()))
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// ReadFile reads the file at path, checks its checksum, magic, version
// and kind, and returns a Reader over its body and the file's checksum.
func (f *Format) ReadFile(path string, kind uint64) (Reader, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Reader{}, 0, err
	}
	r := NewReader(data, f.Corrupt)
	if len(data) < len(f.Magic)+8 {
		r.Fail("file too short")
		return r, 0, r.err
	}
	sum := binary.BigEndian.Uint64(data[len(data)-8:])
	r.p = data[:len(data)-8]
	h := fnv.New64a()
	h.Write(r.p)
	switch {
	case h.Sum64() != sum:
		r.Fail("checksum mismatch")
	case string(r.View(uint64(len(f.Magic)))) != f.Magic:
		r.Fail("bad magic")
	default:
		if v := r.Uvarint(); r.err == nil && v != f.Version {
			r.Fail("unsupported version %d", v)
		}
		if k := r.Uvarint(); r.err == nil && k != kind {
			r.Fail("file kind %d, want %d", k, kind)
		}
	}
	return r, sum, r.err
}

// Sum is the checksum of the file at path: its trailer.
func (f *Format) Sum(path string) (uint64, error) {
	file, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer file.Close()
	var sum [8]byte
	fi, err := file.Stat()
	if err == nil && fi.Size() < 8 {
		err = fmt.Errorf("%w: %s too short", f.Corrupt, path)
	}
	if err == nil {
		_, err = file.ReadAt(sum[:], fi.Size()-8)
	}
	return binary.BigEndian.Uint64(sum[:]), err
}
