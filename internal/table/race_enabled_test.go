//go:build race

package table_test

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops some of what it is given at random:
// allocation bounds that rest on recycling are skipped.
const raceEnabled = true
