//go:build !linux

package main

import "syscall"

// dieWithParent is a no-op where the kernel offers no parent-death
// signal; stop still reaps every shardd on the benchmark's own exit paths.
func dieWithParent() *syscall.SysProcAttr { return nil }
