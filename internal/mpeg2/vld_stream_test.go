package mpeg2_test

import (
	"sync"

	"tiledwall/internal/catalog"
	"tiledwall/internal/mpeg2"
)

// sliceVLDStream is stream 8 (the 1280x720 fish tank of the hd-2x2 wall) at
// half resolution, four frames: I, P and two B pictures.
var sliceVLDStream = sync.OnceValue(func() []byte {
	spec, err := catalog.ByID(8)
	if err != nil {
		panic(err)
	}
	data, err := spec.Generate(catalog.GenOptions{Frames: 4, Scale: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	return data
})

func init() { mpeg2.SliceVLDStream = sliceVLDStream }
