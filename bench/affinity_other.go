//go:build !linux

package main

// isolateThread is a no-op where the bench does not know how to bind
// threads to CPUs; see affinity_linux.go.
func isolateThread() (restore func()) { return func() {} }
