//go:build linux

package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU affinity mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func getAffinity(tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

func setAffinity(tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// threadIDs lists the process's threads.
func threadIDs() []int {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil
	}
	tids := make([]int, 0, len(ents))
	for _, e := range ents {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			tids = append(tids, tid)
		}
	}
	return tids
}

// bindAll binds every thread of the process but skip to m. A thread
// that has just exited makes its call fail, which is fine.
func bindAll(m *cpuMask, skip int) {
	for _, tid := range threadIDs() {
		if tid != skip {
			_ = setAffinity(tid, m)
		}
	}
}

// isolateThread gives the calling goroutine's thread (which must be
// locked with runtime.LockOSThread) a CPU of its own: the thread is
// bound to the last CPU the process may use and every other thread of
// the process to the rest. Threads started later inherit the mask of
// the thread that starts them, so they stay off the reserved CPU too.
//
// Without this the kernel's wake-affine placement keeps putting the
// server's threads on the CPU of whoever woke them — the busy-waiting
// generator, whose socket writes are what wakes them — where they wait
// for a scheduler slice (milliseconds) while the other CPU idles. The
// generator would then be measuring its own interference.
//
// restore undoes the binding. With fewer than two usable CPUs, or if
// the kernel refuses, isolateThread does nothing.
func isolateThread() (restore func()) {
	restore = func() {}
	var all cpuMask
	if getAffinity(0, &all) != nil {
		return
	}
	mine, n := -1, 0
	for cpu := 0; cpu < len(all)*64; cpu++ {
		if all.has(cpu) {
			mine = cpu
			n++
		}
	}
	if n < 2 {
		return
	}
	var own, rest cpuMask
	own[mine/64] = 1 << (mine % 64)
	rest = all
	rest[mine/64] &^= 1 << (mine % 64)
	self := syscall.Gettid()
	bindAll(&rest, self)
	if setAffinity(self, &own) != nil {
		bindAll(&all, -1)
		return
	}
	return func() { bindAll(&all, -1) }
}
