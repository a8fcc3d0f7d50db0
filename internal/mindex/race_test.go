//go:build race

package mindex

// raceEnabled reports a build with the race detector, whose sync.Pool drops
// a share of what is put back on purpose: allocation pins that hold only
// for a warm pool skip under it.
const raceEnabled = true
