package main

import "syscall"

// dieWithParent has the kernel kill a child process if the benchmark dies
// without stopping it, so no shardd outlives a crashed run.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
