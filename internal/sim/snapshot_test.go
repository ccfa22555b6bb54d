package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/population"
	"popstab/internal/protocol"
)

// TestSnapshotBytesGolden pins the exact snapshot byte layout (DESIGN.md §8)
// after 12 rounds of two spatial configurations that together exercise every
// optional section: the matcher section (placement/probe streams, sample
// counters, positions), the adversary section through both a Paced wrapper
// around a stateful PatchCombo and a Composite whose parts carry no state
// (its presence flag is still set, with an empty section), and the identity
// fingerprints of both wrapper trees. Snapshots are worker-count-invariant,
// so Workers 1 and 2 must hash alike. If a layout change is INTENDED, rerun
// with -v and update the constants — and bump the snapshot format, since
// stored checkpoints would no longer restore.
func TestSnapshotBytesGolden(t *testing.T) {
	p := fastParams(t)
	center := population.Point{X: 0.5, Y: 0.5}
	cases := []struct {
		name    string
		matcher func() match.Matcher
		adv     func() adversary.Adversary
		k       int
		want    string
	}{
		{
			name: "torus-paced-patchcombo",
			matcher: func() match.Matcher {
				m, err := match.NewTorus(0.015625)
				if err != nil {
					t.Fatal(err)
				}
				return m
			},
			adv: func() adversary.Adversary {
				return adversary.NewPaced(3, adversary.NewPatchCombo(center, 0.05, nil))
			},
			k:    16,
			want: "102d516d8adc151cec6b6690ae11dcd2f87053b0210c2b449fd2530c6fa715e4",
		},
		{
			name: "smallworld-composite-denier-greedy",
			matcher: func() match.Matcher {
				m, err := match.NewSmallWorld(1.0/4096, 0.2)
				if err != nil {
					t.Fatal(err)
				}
				return m
			},
			adv: func() adversary.Adversary {
				return adversary.NewComposite("",
					adversary.NewRewireDenier(population.Point{X: 0.25}, 0.1),
					adversary.NewGreedy())
			},
			k:    4,
			want: "da6fc1c6f4d0688bd4f0d04cdadaf55b03d0b1a2d2de9cf7b8b2277ed0462891",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				e := MustNew(Config{
					Params: p, Protocol: protocol.MustNew(p), Seed: 2024, Workers: workers,
					Matcher: tc.matcher(), Adversary: tc.adv(), K: tc.k,
				})
				e.RunRounds(12)
				sum := sha256.Sum256(e.Snapshot())
				e.Close()
				if got := hex.EncodeToString(sum[:]); got != tc.want {
					t.Errorf("workers=%d: snapshot sha256 %s, want %s\n"+
						"(if the layout change is intentional, update the golden value)", workers, got, tc.want)
				}
			}
		})
	}
}
