package sweep

import "testing"

// FuzzParseSpec pins the grid-spec parser's two robustness properties:
// arbitrary input never panics (it either parses or returns an error),
// and accepted input reaches a canonical fixpoint — Canon() of a parsed
// spec re-parses, and Canon() of the re-parse is byte-identical. The
// fixpoint is what lets spec digests (and therefore cache keys and
// shard STATE identities) be content-addressed.
func FuzzParseSpec(f *testing.F) {
	f.Add(runnerSpecText)
	f.Add("name x\napps gauss\nkinds standard\nmodes naive\nseeds 1..3\nscale 0.1\n")
	f.Add("name y\napps gauss,fft\nkinds nwcache\nmodes optimal\nseeds 1,5,9\nscale 1\nseries 200000\n")
	f.Add("# comment\n\nname z\napps gauss\nkinds standard\nmodes naive\nseeds 2..2\nscale 0.5\nparam MinFreeFrames 4,8\n")
	f.Add("name t\nkinds standard,nwcache\nmodes optimal\nparam Nodes/MeshW/MeshH/IONodes/RingChannels 4/2/2/2/4,8/4/2/4/8\nparam DCD false,true\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		c1 := s.Canon()
		s2, err := ParseSpec(c1)
		if err != nil {
			t.Fatalf("Canon output rejected: %v\ncanon:\n%s", err, c1)
		}
		if c2 := s2.Canon(); c2 != c1 {
			t.Fatalf("Canon not a fixpoint:\nfirst:\n%s\nsecond:\n%s", c1, c2)
		}
	})
}
