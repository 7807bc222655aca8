//go:build !race

package rbac_test

const raceEnabled = false
