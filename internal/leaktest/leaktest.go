// Package leaktest asserts that a test leaves no descriptor or goroutine
// behind.
package leaktest

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// Check records the process's open descriptors and goroutines and, once the
// test is done, waits up to 2 s for both to come back to that baseline:
// every socket the test's servers, gateways, coordinators, proxies and
// clients opened must be closed again, and every goroutine they started must
// have exited. Call it first in a test, so that its cleanup runs after every
// other. It counts /proc/self/fd, so it checks on linux only.
func Check(t testing.TB) {
	t.Helper()
	if runtime.GOOS != "linux" {
		return
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	fdBase, goBase := fds(), runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			fd, gr := fds(), runtime.NumGoroutine()
			if fd <= fdBase && gr <= goBase {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("leaked %d descriptors and %d goroutines", fd-fdBase, gr-goBase)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
