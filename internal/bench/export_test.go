package bench

import "mcd/internal/resultcache"

// RunAllMemo is RunAll that also returns each batch's memo counters,
// for the external tests that check the memo against the wire path.
func (o Options) RunAllMemo() ([]Comparison, [2]resultcache.Stats) {
	return o.runAllOn(o.catalog())
}
