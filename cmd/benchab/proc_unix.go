//go:build unix

package main

import (
	"os"
	"os/exec"
	"syscall"
)

// killGroup starts cmd in a process group of its own and makes cancelling
// it kill the whole group, so a stopped run takes its children — its go
// build, say — with it rather than leaving them writing into a checkout
// about to be removed.
func killGroup(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error {
		err := syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		if err == syscall.ESRCH {
			// The group is gone already: as exec.Cmd expects of a
			// Cancel that found nothing left to stop.
			return os.ErrProcessDone
		}
		return err
	}
}
