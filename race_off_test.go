//go:build !race

package vini_test

const raceEnabled = false
