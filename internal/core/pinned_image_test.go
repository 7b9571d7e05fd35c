package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestImageBytesPinned saves every image format — LPSK, LPSH, LPSW,
// LPSD, LPDH and LPDY, uniform and tiered, plus a biased LPSK that
// tracks triangles — from seeded streams and compares each image's
// sha256 with a pinned value. Any change to what Save writes fails
// here: a format change must say so by updating the pins.
func TestImageBytesPinned(t *testing.T) {
	pinned := map[string]string{
		"LPSK/uniform": "6ba291446de8ab43f1208b70022c2803114162e1a356a2f36325c4c0bf7ec5d4",
		"LPSH/uniform": "144538165c3b2ba10161da1175f27851571f58189cfdeb11b972ea65a6d64c20",
		"LPSW/uniform": "8d548db7a6a947c83c9566bf0058b2d13c3f5d6cf7d7af85761fc16c646f42ff",
		"LPSD/uniform": "575155d42eb52749407151f6866c963c9778b9816b3e09a99249b6c95bbd0b40",
		"LPDH/uniform": "5d96a190fde1a019722b12dae7b0d81ce333196a440b748fddd39ef0d031c57b",
		"LPDY/uniform": "3e63e0794129e85ce52b63a601429da1f05c3f01b54008a3875ac112dd85a8ab",
		"LPSK/tiered":  "279b22b2f822eaf0eb0bde44b0277f250c7d1e75a8187c85edbd384e5515c3fc",
		"LPSH/tiered":  "14e0034456ac2379ff86f5e680fd5d76c6629e25f1e766243e9317ffb4ae01ea",
		"LPSW/tiered":  "71b00af7e2787ddff035eb6388ca2d30f49ea745d5267d98f42bc2514f3c7f7c",
		"LPSD/tiered":  "49e751eca3237ed1244cd3533b5ff8b93f52c668127ba939a2b68a0f6a8d1dd2",
		"LPDH/tiered":  "3cfd6e58c70efb2e930c42c6989887ff1ddfa352ce8eed042010bb902f41af73",
		"LPDY/tiered":  "0cdf3219c07b9eba0d979f0eb9a44cce49cee1153bf1f497914623b7d9047af7",
		"LPSK/biased":  "18108aba3950d5a4453848cd826464f90aae7e889802c52e581a02deb444161b",
	}
	edges := skewedEdges(600, 3000, 1801)
	uniform := Config{K: 16, Seed: 1811, Degrees: DegreeDistinctKMV}
	tiered := uniform
	tiered.Tiers = [MaxTiers]Tier{{K: 4}, {K: 8, PromoteAt: 6}, {K: 16, PromoteAt: 30}}
	stores := map[string]Store{
		"LPSK/biased": must(NewSketchStore(Config{K: 16, Seed: 1823, EnableBiased: true, TrackTriangles: true})),
	}
	for name, cfg := range map[string]Config{"uniform": uniform, "tiered": tiered} {
		stores["LPSK/"+name] = must(NewSketchStore(cfg))
		stores["LPSH/"+name] = must(NewSharded(cfg, 3))
		stores["LPSW/"+name] = must(NewWindowed(cfg, 700, 3))
		stores["LPSD/"+name] = must(NewDirectedStore(cfg))
		stores["LPDH/"+name] = must(NewShardedDirected(cfg, 3))
		stores["LPDY/"+name] = must(NewDynamicStore(cfg, 2))
	}
	for name, s := range stores {
		for _, e := range edges {
			s.Ingest(e)
		}
		// Deletes exercise the dynamic records' lost counts, refs and
		// degraded flags.
		if d, ok := s.(*DynamicStore); ok {
			for _, e := range edges[:1200] {
				d.DeleteEdge(e)
			}
		}
		sum := sha256.Sum256(saveBytes(t, s.Save))
		if got := hex.EncodeToString(sum[:]); got != pinned[name] {
			t.Errorf("%s image sha256 %s, pinned %s", name, got, pinned[name])
		}
	}
}
