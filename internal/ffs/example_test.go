package ffs_test

import (
	"fmt"
	"log"

	"bsdtrace/internal/ffs"
)

// A 5000-byte file on a 4-KB-block, 512-byte-fragment disk occupies one
// full block plus two fragments: 5120 allocated bytes for 5000 of data.
// Realloc of a nil file allocates it afresh.
func ExampleDisk_Realloc() {
	disk, err := ffs.NewDisk(ffs.Geometry{
		BlockSize: 4096, FragSize: 512, Groups: 2, BlocksPerGroup: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := disk.Realloc(nil, 5000); err != nil {
		log.Fatal(err)
	}
	u := disk.Usage()
	fmt.Printf("%d full block(s) + %d fragment(s)\n", u.AllocatedBytes/4096, u.AllocatedBytes%4096/512)
	fmt.Printf("allocated %d bytes for %d bytes of data (%.1f%% waste)\n",
		u.AllocatedBytes, u.DataBytes, 100*u.WasteFraction)
	// Output:
	// 1 full block(s) + 2 fragment(s)
	// allocated 5120 bytes for 5000 bytes of data (2.3% waste)
}

// Without fragments (FragSize == BlockSize, the pre-FFS file system), the
// same file wastes most of a block.
func ExampleDisk_Realloc_wholeBlocks() {
	disk, err := ffs.NewDisk(ffs.Geometry{
		BlockSize: 4096, FragSize: 4096, Groups: 2, BlocksPerGroup: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := disk.Realloc(nil, 5000); err != nil {
		log.Fatal(err)
	}
	u := disk.Usage()
	fmt.Printf("allocated %d bytes for %d bytes of data (%.1f%% waste)\n",
		u.AllocatedBytes, u.DataBytes, 100*u.WasteFraction)
	// Output:
	// allocated 8192 bytes for 5000 bytes of data (39.0% waste)
}
