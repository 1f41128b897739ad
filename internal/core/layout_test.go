package core

import (
	"testing"
	"unsafe"

	"repro/internal/objects"
	"repro/internal/pmem"
)

// TestHandlesShareNoCacheLine pins the false-sharing layout: every
// operation writes its own Handle (busy, floor, seq, viewIdx), so each
// handle must start on a cache line and span a whole number of them.
// Handles are allocated one by one, so this rests on the struct size
// being a line multiple (the tail pad) and the allocator's size class
// for it being one too; the address check catches either slipping.
// Without the pad Handle is 264 bytes, the allocator rounds it to 288,
// every second handle starts mid-line, and two readers on two cores ran
// at half speed.
func TestHandlesShareNoCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(Handle{}); sz%pmem.LineSize != 0 {
		t.Errorf("Handle is %d bytes, not a multiple of the %d-byte line", sz, pmem.LineSize)
	}
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 8, ReadFastPath: true, LogCapacity: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for pid, h := range in.hands {
		if off := uintptr(unsafe.Pointer(h)) % pmem.LineSize; off != 0 {
			t.Errorf("handle %d starts %d bytes into a cache line", pid, off)
		}
	}
}
