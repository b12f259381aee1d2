package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"

	"hummer/internal/qcache"
	"hummer/internal/relation"
)

// fingerprintOf hashes a workload's operation schedule together with
// the content of its generated inputs.
func fingerprintOf(schedule string, rels ...*relation.Relation) string {
	h := sha256.New()
	h.Write([]byte(schedule))
	for _, r := range rels {
		h.Write([]byte{0})
		h.Write([]byte(qcache.FingerprintRelation(r)))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// scaled stretches a traced run's fixed operation count with the
// requested run length, keeping at least ten: counts stay a function
// of the command line alone, so the counters the traced run reports
// repeat exactly.
func scaled(n int, scale float64) int {
	return max(10, int(math.Round(float64(n)*scale)))
}
