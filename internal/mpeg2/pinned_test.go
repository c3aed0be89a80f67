package mpeg2_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tiledwall/internal/catalog"
	"tiledwall/internal/encoder"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/video"
)

// pinnedStream is one generated stream whose serial decode is pinned by the
// SHA-256 of every display picture (Y, then Cb, then Cr).
type pinnedStream struct {
	name string
	gen  func() ([]byte, error)
}

func pinnedCatalog(id int) func() ([]byte, error) {
	return func() ([]byte, error) {
		spec, err := catalog.ByID(id)
		if err != nil {
			return nil, err
		}
		return spec.Generate(catalog.GenOptions{Frames: 7, Scale: 8, Seed: 5})
	}
}

// pinnedEncode encodes seven frames of a small film scene under cfg, which
// selects the coding tools the stream exercises.
func pinnedEncode(cfg encoder.Config) func() ([]byte, error) {
	return func() ([]byte, error) {
		cfg.Width, cfg.Height = 96, 64
		cfg.GOPSize, cfg.BSpacing = 6, 3
		src := video.NewSource(video.SceneFilm, cfg.Width, cfg.Height, 11)
		e, err := encoder.New(cfg)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 7; i++ {
			if err := e.Push(src.Frame(i)); err != nil {
				return nil, err
			}
		}
		if err := e.Flush(); err != nil {
			return nil, err
		}
		return e.Bytes(), nil
	}
}

// TestSerialDecoderPinnedDigests pins the serial decoder — the oracle every
// parallel configuration is compared against — to digests recorded before
// the entropy-decode kernels were rewritten, so a change to the VLD, the
// coefficient tables or inverse quantisation that shifts a single sample is
// caught even when the parallel paths move in lockstep with it.
func TestSerialDecoderPinnedDigests(t *testing.T) {
	streams := []pinnedStream{
		{"catalog-01-spr", pinnedCatalog(1)},
		{"catalog-08-fish4", pinnedCatalog(8)},
		{"catalog-13-orion1", pinnedCatalog(13)},
		{"intra-vlc-format", pinnedEncode(encoder.Config{InitialQScale: 4, IntraVLCFormat: true})},
		{"q-scale-type", pinnedEncode(encoder.Config{InitialQScale: 6, QScaleType: true, AdaptiveQuant: true})},
		{"alternate-scan", pinnedEncode(encoder.Config{InitialQScale: 5, AlternateScan: true})},
		// Quantiser scale 1 drives levels into the escape range; all three
		// tools together plus a raised DC precision.
		{"all-tools-q1", pinnedEncode(encoder.Config{InitialQScale: 1, IntraVLCFormat: true,
			QScaleType: true, AlternateScan: true, IntraDCPrecision: 2})},
	}
	for _, ps := range streams {
		t.Run(ps.name, func(t *testing.T) {
			want := pinnedDigests[ps.name]
			data, err := ps.gen()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := mpeg2.NewDecoder(data)
			if err != nil {
				t.Fatal(err)
			}
			pics, err := dec.DecodeAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(pics) != len(want) {
				t.Errorf("decoded %d pictures, pinned %d", len(pics), len(want))
			}
			for i, p := range pics {
				h := sha256.New()
				h.Write(p.Buf.Y)
				h.Write(p.Buf.Cb)
				h.Write(p.Buf.Cr)
				got := hex.EncodeToString(h.Sum(nil))
				if i >= len(want) || got != want[i] {
					t.Errorf("display picture %d: sha256 %s", i, got)
				}
			}
		})
	}
}

// pinnedDigests holds the SHA-256 of each display picture of each pinned
// stream, recorded from the serial decoder with the per-field VLC reader
// and post-hoc inverse quantisation it had before the one-pass coefficient
// decode.
var pinnedDigests = map[string][]string{
	"catalog-01-spr": {
		"aedf2bd2be0f8eee218926cbb2938f11d9a1c2b9497fe11c5b22119d349b9a6c",
		"436d685674e7045bb753612cbb1310910d6fd4b35ec197bfd35fbc122044eea1",
		"f4860fec6611e19d84e9f721f2547b5e0c80900f848c3156b29b487dcaaddbd0",
		"b7dd6462920ba7fad12de5dbe8cbf9119c4cb6d5205ffcdd03f054c6888cb62c",
		"f64c0636acd55028a718872355a50a1ab9c666cb5dcd498b10bf1e4832e5f956",
		"a74d9066905ded734cf5225d6d8fdb9ab81d3e3aefb0e8875e327b2fc707830d",
		"f98e0a7340d12f11632084b9f8e848704ce7dc064a371cfd0921303902ab20ef",
	},
	"catalog-08-fish4": {
		"c30f5c3ef210941468442093cabee069d3564c6a929d1b7a1359fb371600c83b",
		"8549a2d6cf49e36255e4d8e7bbe02f98f01d1f22002646b1201e5c27ecad8776",
		"f240fd4e66b73504c9dd12fc947c5b8ad48f46314f4ed1e6cd2e50c10e5f9ba0",
		"65f4aff07ecab903f5f086eed881dce3f3a773e5ed6c69c124ba99f1e632c28f",
		"38adecb563770a61c26527bcb029dced01337696dc7255304e7058f15f2616eb",
		"959fb3d8b0c66755f102454bf53fb8a0bb2d527c05ae808b47e16bdefbd3f269",
		"218bf7df84b7f63f35b9fb684fe8e8e3d6649cd14e86d2a3ba5f7d2e53358469",
	},
	"catalog-13-orion1": {
		"ba1752e7bf63130f4588ef532db9da7f91c648c904292e275b22463a003743b7",
		"c978b78087a887d7a52afee613e7f9830794221234cb94c9474e849298892827",
		"2c8b3ee02b42f6a1e7fb1a7b6d4046d507edb5a33d500308b7e7fb08e5fa6663",
		"1f76d39abd8c797e1849a221ce6376596cb80cf7d5a47182aa0dcd3eff0c5e72",
		"911b2fc1c3f96b3cafc4c835599da041e81e24674cea0223f2a8081a753ea64e",
		"e9d952458141df6e4fd60dd665435b65692667aa204ae8a766fa83ee00b88dbe",
		"6ab042f48fedbaea7235b78db9cd1a72735fbf9f8245c26a880fe50f5eed824a",
	},
	"intra-vlc-format": {
		"464ac9f134a9745e690fed93488efbb9eb9286c0c816912e359ad03919319847",
		"df167a0deb21a74d04e7ee9f0124587503a71852ead908db7da2d895c8f4362c",
		"be5e2e20cce7c4b296c5401d20034ddb88eba5ed7c85fe699feefef57dc32093",
		"3722836655c48a6cb8e4c7a0376451c115098c8ac5a1d8aa543cc63e91899fa0",
		"14d0dcc05dae02acaeee33ba9fc3792a313d493b6bdac72679c9b7ae464d4aaa",
		"ac719e6a82dbede24af608c98695b4979d9c94305a63550763a4f2e455c2c62f",
		"59dbee11d751ca472884b62d01f826c81fe5c7b11352f60dab09b5d944b916ef",
	},
	"q-scale-type": {
		"c878a7e1955cfd6fa2fd2d3212925ba88de10d3c82e6ed16fb4ba30d2c02a77d",
		"97a7ed7c325eb20021544b09399444185f96a4082ac5b7a41639f14134c75884",
		"03f41ae3620790f071cbc85d6bdb01fb0ef4b53e59df9ef1ceee67b8a35a9bfa",
		"36982be7900d6ec64b1f4b6c1f0d91764601f99a28081cf5ec34db67fe929e52",
		"216b3e455de3bbb94e4cd6e860e50826c8b7c7915645166eb4d8e5fd4df04332",
		"37282424de430d6765cae3004d09c771306579e3719668ceef097df5067fe4a3",
		"84fc03f2183b229a63aed48906c64bf4103babd1144cfb803c20816662f2e801",
	},
	"alternate-scan": {
		"eeb7432a1127ccaedfa56b12e75e44f3f28439f011ead00baaeb3ee6ba170ed8",
		"b6df1770aac49a1c09f88f6aca538ad6ea996dd1b7c3ac550f0bb631a6a9ccf9",
		"c0bdd587506f6d4e46ee512496d2fb33bac50e5262f2168833799f65afbed9f1",
		"91f359ac3ecd3da80ab9336302740d2d240fd59a798574599e155c5d6ffb6887",
		"c4e5c61f37c87a2a5d015812213f7e57ad182e179a85b82dc69674796006b034",
		"34730a3532db5d421cd4f8535646906771800367ebfb2317e4b6e10f9e9a32c1",
		"552369883e1b079487f42ca125ac2d0bef10c23ab16ae6b6afb2cf9adb797732",
	},
	"all-tools-q1": {
		"68e895c10ff950e5155b451a4370c48710da82041d2c5dc22934337aace66b20",
		"3a5b252f4dfb97ea4018bb95bacea931bbe6431f3043ef0c6031ebe8520af058",
		"b61b84930ba37e309296aa3f8f648fae5a03755d8e2545b362aba1518647cc17",
		"2cd83d4e0432ed80692e234a41171d97b8bfeb3ac76e561f5c9ac089f4ff2594",
		"a4f636982c31b0c98de693b8025c311d5cbf9e5f019881ba9d2996d441d32fef",
		"53eb42c049a9818fb50538f5c11ef167625165a741f435337ee89682bfdbeefe",
		"1b78d76829e98014f4be4479257464c3821a09c6ad6a21b56d03183b5497740b",
	},
}
