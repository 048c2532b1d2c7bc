//go:build !race

package ckpt

const raceEnabled = false
