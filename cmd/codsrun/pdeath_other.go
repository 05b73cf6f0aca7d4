//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op where there is no parent-death signal: the
// children of a killed driver keep serving and must be stopped by hand.
func dieWithParent(*exec.Cmd) {}
