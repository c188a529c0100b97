// Command federation demonstrates the foreign-database storage method:
// "another relation storage method might support access to a foreign
// database by simulating relation accesses via (remote) accesses to
// relations in the foreign database". A local relation and a remote one
// join transparently; the program reports the message traffic the remote
// accesses generate and shows that an aborted local transaction never
// reaches the foreign database: its writes are staged there and discarded.
package main

import (
	"fmt"
	"log"
	"time"

	"dmx"
)

func main() {
	// The "foreign DBMS": in-process, spoken to over a byte protocol with
	// 50µs of injected one-way latency per message.
	fed := dmx.NewForeignServer(50 * time.Microsecond)
	db, err := dmx.Open(dmx.Config{Servers: map[string]*dmx.ForeignServer{"warehouse": fed}})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	mustExec(db,
		"CREATE TABLE products (pno INT NOT NULL, name STRING) USING memory",
		"CREATE TABLE stock (sno INT NOT NULL, pno INT, qty INT) USING remote WITH (server=warehouse, table=stock_levels)",
	)

	mustExec(db,
		"INSERT INTO products VALUES (1, 'widget'), (2, 'gadget'), (3, 'sprocket')",
	)
	before := fed.Messages.Load()
	mustExec(db,
		"INSERT INTO stock VALUES (100, 1, 7), (101, 2, 0), (102, 1, 3)",
	)
	fmt.Printf("loading 3 remote records took %d messages to the foreign database\n",
		fed.Messages.Load()-before)

	fmt.Println("== cross-database join (local products ⋈ remote stock) ==")
	before = fed.Messages.Load()
	res, err := db.Exec("SELECT products.name, stock.qty FROM products JOIN stock ON products.pno = stock.pno")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println("  ", row)
	}
	fmt.Printf("   join plan: %s (%d foreign messages)\n", res.Explain, fed.Messages.Load()-before)

	fmt.Println("== an aborted local transaction never reaches the foreign database ==")
	mustExec(db, "BEGIN", "UPDATE stock SET qty = 0 WHERE pno = 1", "ROLLBACK")
	res, err = db.Exec("SELECT qty FROM stock WHERE pno = 1")
	if err != nil {
		log.Fatal(err)
	}
	total := int64(0)
	for _, row := range res.Rows {
		total += row[0].AsInt()
	}
	fmt.Printf("   stock for product 1 after rollback: %d (unchanged)\n", total)
}

func mustExec(db *dmx.DB, stmts ...string) {
	if _, err := db.Exec(stmts...); err != nil {
		log.Fatal(err)
	}
}
