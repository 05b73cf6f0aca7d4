package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel SIGKILL cmd's process when this driver
// dies, however it dies, so a killed codsrun never leaves codsnode
// children serving.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
