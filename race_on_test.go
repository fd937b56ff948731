//go:build race

package vini_test

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a quarter of all Puts on purpose, so a pooled path cannot be
// allocation-free and the whole-path guard checks the pool ledger
// instead of the allocation count.
const raceEnabled = true
