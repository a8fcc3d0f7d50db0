//go:build !race

package mindex

const raceEnabled = false
