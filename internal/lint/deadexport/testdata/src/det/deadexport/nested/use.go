// Command nested is a separate module under the module root, like bench/.
package main

import (
	"fmt"

	"det/deadexport/internal/dead"
	"det/deadexport/internal/missing"
)

func main() {
	dead.UsedByNested()
	fmt.Println(dead.Square{Side: 1}.Perimeter())
	var l missing.Labeler = dead.Square{Side: 1}
	fmt.Println(l.Label())
}
