//go:build race

package mindex

// raceEnabled reports a -race build, in which sync.Pool drops a quarter of
// what is Put into it by design: byte ceilings that rest on a warm pool do
// not hold there.
const raceEnabled = true
