//go:build race

package ckpt

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, so a test that counts on warm pools does not hold.
const raceEnabled = true
