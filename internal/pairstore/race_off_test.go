//go:build !race

package pairstore

const raceEnabled = false
