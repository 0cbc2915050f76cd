//go:build race

package service

// raceEnabled: the race detector's runtime allocates on its own, so
// exact allocation pins do not hold under it.
const raceEnabled = true
