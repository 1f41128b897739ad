package server

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzReadRequest feeds arbitrary bytes to the request decoder: it
// never panics, rejects a frame that claims more than maxArgs
// arguments, and every frame it accepts re-encodes byte for byte
// through writeRequest.
func FuzzReadRequest(f *testing.F) {
	var buf bytes.Buffer
	for _, kind := range []byte{KindUpdate, KindUpdatePersist, KindUpdateLinearize, KindRead} {
		for n := 0; n <= maxArgs; n++ {
			buf.Reset()
			if err := writeRequest(&buf, uint32(7+n), kind, 0xdeadbeef, []uint64{1, 1 << 63, 42}[:n]); err != nil {
				f.Fatal(err)
			}
			frame := buf.Bytes()
			f.Add(bytes.Clone(frame))
			f.Add(bytes.Clone(frame[:len(frame)-1])) // truncated argument
			f.Add(bytes.Clone(frame[:9]))            // truncated header
		}
	}
	for _, nargs := range []byte{4, 255} {
		frame := make([]byte, 14+8*int(nargs))
		frame[4], frame[13] = KindRead, nargs
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tag, kind, code, args, nargs, err := readRequest(bufio.NewReader(bytes.NewReader(data)))
		if len(data) >= 14 && data[13] > maxArgs && err == nil {
			t.Fatalf("accepted a frame claiming %d args", data[13])
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeRequest(&out, tag, kind, code, args[:nargs]); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if n := out.Len(); n > len(data) || !bytes.Equal(out.Bytes(), data[:n]) {
			t.Fatalf("re-encoded % x, decoded from % x", out.Bytes(), data)
		}
	})
}
