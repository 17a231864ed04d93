package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bsdtrace/internal/trace"
)

// TestGeneratedTraceDigests pins the exact bytes the generator produces.
// Each case is the SHA-256 of the version-1 encoding of one run, the file
// `fstrace -q -profile A5 -seed 1 -duration 2h` writes for the first case.
// The determinism tests only compare two runs of the same code with each
// other and the goldens pin aggregates, so a change that reorders events,
// shifts a random draw or renumbers an inode shows up here first. A
// change meant to keep generation byte-identical must leave every digest
// as it is; one that changes the workload on purpose says so and updates
// them.
func TestGeneratedTraceDigests(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"A5/seed1", Config{Profile: "A5", Seed: 1, Duration: 2 * trace.Hour},
			"6f51fc82a627d7b039168b0074fd4f5697cd1c24190499a812f8feb6188ea57f"},
		{"A5/seed5", Config{Profile: "A5", Seed: 5, Duration: 2 * trace.Hour},
			"11872f80a5b3dce25fad7d7d75960f0c815f4df42c60948a7262c3781472a898"},
		{"A5/seed11", Config{Profile: "A5", Seed: 11, Duration: 2 * trace.Hour},
			"6071d9e98d66b3f3da7f731ff7a46a9e3cd842b2d2e29ba358e15381ee889845"},
		{"E3/seed1", Config{Profile: "E3", Seed: 1, Duration: 2 * trace.Hour},
			"4760d84c95a6110bcb9ea9b7c9d1e33849c487103eb442d5ba7084ff496b05d9"},
		{"E3/seed5", Config{Profile: "E3", Seed: 5, Duration: 2 * trace.Hour},
			"07a84bd119e4cfb2f6170218f4208e2d00a6c4314ad70a143d59f1ce35426005"},
		{"E3/seed11", Config{Profile: "E3", Seed: 11, Duration: 2 * trace.Hour},
			"055e3586432c314ab59732d6cc5937cf0de901b0fcc2ca3d7f20b3dde6f152b3"},
		{"C4/seed1", Config{Profile: "C4", Seed: 1, Duration: 2 * trace.Hour},
			"1e83a6d90361266360ba105e0a48b20fa305c5b232401dbd4fa73db63295df74"},
		{"C4/seed5", Config{Profile: "C4", Seed: 5, Duration: 2 * trace.Hour},
			"28649799b473ae1936eb9182b3f2f74c3b680a3ce64f3c51fbc168d60199209f"},
		{"C4/seed11", Config{Profile: "C4", Seed: 11, Duration: 2 * trace.Hour},
			"16244db6b8f2d452813d1f268d34589f962b5eb87562959fc388e17870e3d448"},
		{"A5/shards2", Config{Profile: "A5", Seed: 1, Duration: 2 * trace.Hour, Shards: 2},
			"38088faf716c342930edc99d84c03e35e17e91e94767b2117f8bffd9a4dcc07c"},
		{"A5/scale16", Config{Profile: "A5", Seed: 1, Duration: 1 * trace.Hour, UserScale: 16},
			"e18a28c444881a31f0a480aecb9c3cb7da18e57e821db685d6d33dd35ce0ec06"},
		{"A5/diurnal", Config{Profile: "A5", Seed: 1, Duration: 24 * trace.Hour, Diurnal: true},
			"c4df77bcccc21118ae518268b1b774ec316d0a4327334b62edd25ca85064393f"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			h := sha256.New()
			w := trace.NewWriter(h)
			if _, err := GenerateStream(c.cfg, w.Write); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("digest = %s, want %s", got, c.want)
			}
		})
	}
}
