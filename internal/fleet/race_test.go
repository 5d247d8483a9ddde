//go:build race

package fleet

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of Puts: allocation gates that count on pooled scratch staying pooled
// skip under it.
const raceEnabled = true
