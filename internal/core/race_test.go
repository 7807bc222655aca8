//go:build race

package core_test

// raceEnabled gates the allocation guard: under the race detector
// sync.Pool drops Puts at random.
const raceEnabled = true
