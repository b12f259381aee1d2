package lint

import "go/types"

// runAtomicMix bans the function-style sync/atomic API: a variable
// updated through atomic.AddInt64(&x, 1) can still be read or written
// plainly elsewhere, a race the detector sees only when it bites. The
// typed atomics (atomic.Int64, …) admit no plain access at all.
func runAtomicMix(p *prog) []Finding {
	var out []Finding
	for _, pkg := range p.pkgs {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Signature().Recv() == nil {
				out = append(out, p.finding(id.Pos(), "atomicmix", "atomic.%s: use a typed atomic (atomic.Int64, …)", fn.Name()))
			}
		}
	}
	return out
}
