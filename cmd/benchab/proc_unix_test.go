//go:build unix

package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// alive reports whether pid names a process that has not exited. A killed
// process whose parent died before reaping it stays a zombie until its new
// parent reaps it, which counts as exited.
func alive(pid int) bool {
	if syscall.Kill(pid, 0) != nil {
		return false
	}
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return true // no procfs: the signal probe is all there is
	}
	// The state follows the parenthesised command name.
	s := string(stat)
	i := strings.LastIndexByte(s, ')')
	return i < 0 || i+2 >= len(s) || (s[i+2] != 'Z' && s[i+2] != 'X')
}

// TestRunOnceKillsItsChildren cancels a run whose benchmark/run.sh has
// started a child of its own: runOnce returns the cancellation, and the
// child is gone with the shell.
func TestRunOnceKillsItsChildren(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "benchmark"), 0o755); err != nil {
		t.Fatal(err)
	}
	script := "sleep 30 &\necho $! > child.pid\nwait\n"
	if err := os.WriteFile(filepath.Join(dir, "benchmark", "run.sh"), []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := runOnce(ctx, dir, "exact_disk", 1, 1, false)
		done <- err
	}()
	pid := 0
	for deadline := time.Now().Add(10 * time.Second); pid == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			cancel()
			<-done
			t.Fatal("the fake run.sh never wrote its child's pid")
		}
		if blob, err := os.ReadFile(filepath.Join(dir, "child.pid")); err == nil && strings.HasSuffix(string(blob), "\n") {
			pid, _ = strconv.Atoi(strings.TrimSpace(string(blob)))
		}
	}
	t.Cleanup(func() { syscall.Kill(pid, syscall.SIGKILL) })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); alive(pid); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("child %d of the cancelled run is still running", pid)
		}
	}
}
