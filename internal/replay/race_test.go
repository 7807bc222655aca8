//go:build race

package replay

// raceEnabled gates the allocation guard: the race detector's
// instrumentation allocates on its own behalf.
const raceEnabled = true
