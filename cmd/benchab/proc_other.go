//go:build !unix

package main

import "os/exec"

// killGroup leaves cmd as it is where there are no process groups:
// cancelling it kills the shell alone.
func killGroup(cmd *exec.Cmd) {}
