//go:build race

package session

// raceEnabled gates the allocation guard: the race detector's
// instrumentation allocates on its own behalf.
const raceEnabled = true
