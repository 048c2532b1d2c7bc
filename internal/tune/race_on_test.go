//go:build race

package tune

// raceEnabled: the race detector slows each candidate by a different factor,
// so a test that ranks their measured speeds does not hold under it.
const raceEnabled = true
