// Package watdiv implements a WatDiv-like synthetic RDF data generator and
// the three query workloads of the paper's evaluation: the predefined Basic
// Testing use case (Appendix A), the Selectivity Testing workload the
// authors designed (Appendix B), and the Incremental Linear Testing use
// case they contributed to WatDiv (Appendix C).
//
// The generator reproduces WatDiv's entity classes (users, products,
// retailers, offers, reviews, websites, cities, ...) and — more importantly
// for this paper — the predicate-size and correlation profile its
// experiments rely on: wsdbm:friendOf ≈ 0.4·|G|, wsdbm:follows ≈ 0.3·|G|,
// wsdbm:likes ≈ 0.01·|G|, 90 % of users with an email, 5 % with a job
// title, and so on, so that the documented SF values of the ST queries hold
// approximately.
package watdiv

import (
	"fmt"
	"math/rand"

	"s2rdf/internal/rdf"
)

// Namespace IRIs (matching rdf.CommonPrefixes).
const (
	wsdbm = "http://db.uwaterloo.ca/~galuc/wsdbm/"
	sorg  = "http://schema.org/"
	gr    = "http://purl.org/goodrelations/"
	gn    = "http://www.geonames.org/ontology#"
	mo    = "http://purl.org/ontology/mo/"
	og    = "http://ogp.me/ns#"
	rev   = "http://purl.org/stuff/rev#"
	foaf  = "http://xmlns.com/foaf/"
	dc    = "http://purl.org/dc/terms/"
)

// Config parameterizes generation.
type Config struct {
	// Scale is the WatDiv scale factor; Scale 1 yields roughly 10^5
	// triples (the paper's SF10 ≈ 10^6, SF10000 ≈ 10^9 on the same axis).
	Scale float64
	// Seed makes generation deterministic.
	Seed int64
}

// Data is a generated dataset with its entity pools (needed to instantiate
// query-template placeholders the way the WatDiv query generator does).
type Data struct {
	Triples []rdf.Triple
	Pools   map[string][]rdf.Term // entity class name -> entities
}

// Entities returns the pool for a WatDiv entity class such as "User",
// "Retailer", "Website", "Topic", "City", "Country", "ProductCategory",
// "AgeGroup", "SubGenre", "Language", "Product".
func (d *Data) Entities(class string) []rdf.Term { return d.Pools[class] }

func entity(class string, i int) rdf.Term {
	return rdf.NewIRI(fmt.Sprintf("%s%s%d", wsdbm, class, i))
}

func p(ns, local string) rdf.Term { return rdf.NewIRI(ns + local) }

// Predicates used by the workloads.
var (
	pFriendOf     = p(wsdbm, "friendOf")
	pFollows      = p(wsdbm, "follows")
	pLikes        = p(wsdbm, "likes")
	pSubscribes   = p(wsdbm, "subscribes")
	pMakesPurch   = p(wsdbm, "makesPurchase")
	pPurchaseFor  = p(wsdbm, "purchaseFor")
	pPurchaseDate = p(wsdbm, "purchaseDate")
	pGender       = p(wsdbm, "gender")
	pHasGenre     = p(wsdbm, "hasGenre")
	pHits         = p(wsdbm, "hits")
	pType         = rdf.NewIRI(rdf.RDFType)
	pEmail        = p(sorg, "email")
	pJobTitle     = p(sorg, "jobTitle")
	pNationality  = p(sorg, "nationality")
	pCaption      = p(sorg, "caption")
	pDescription  = p(sorg, "description")
	pKeywords     = p(sorg, "keywords")
	pContentRat   = p(sorg, "contentRating")
	pContentSize  = p(sorg, "contentSize")
	pPublisher    = p(sorg, "publisher")
	pLanguage     = p(sorg, "language")
	pText         = p(sorg, "text")
	pTrailer      = p(sorg, "trailer")
	pDirector     = p(sorg, "director")
	pEditor       = p(sorg, "editor")
	pAuthor       = p(sorg, "author")
	pActor        = p(sorg, "actor")
	pLegalName    = p(sorg, "legalName")
	pEligRegion   = p(sorg, "eligibleRegion")
	pEligQuant    = p(sorg, "eligibleQuantity")
	pPriceValid   = p(sorg, "priceValidUntil")
	pURL          = p(sorg, "url")
	pFaxNumber    = p(sorg, "faxNumber")
	pOffers       = p(gr, "offers")
	pIncludes     = p(gr, "includes")
	pPrice        = p(gr, "price")
	pSerial       = p(gr, "serialNumber")
	pValidFrom    = p(gr, "validFrom")
	pValidThrough = p(gr, "validThrough")
	pParentCtry   = p(gn, "parentCountry")
	pArtist       = p(mo, "artist")
	pConductor    = p(mo, "conductor")
	pTag          = p(og, "tag")
	pTitle        = p(og, "title")
	pHasReview    = p(rev, "hasReview")
	pReviewer     = p(rev, "reviewer")
	pRevTitle     = p(rev, "title")
	pTotalVotes   = p(rev, "totalVotes")
	pAge          = p(foaf, "age")
	pFamilyName   = p(foaf, "familyName")
	pGivenName    = p(foaf, "givenName")
	pHomepage     = p(foaf, "homepage")
	pLocation     = p(dc, "Location")
)

func scaled(base float64, scale float64, minimum int) int {
	n := int(base * scale)
	if n < minimum {
		return minimum
	}
	return n
}

// Generate produces a dataset at the configured scale, its triples
// collected in Data.Triples.
func Generate(cfg Config) *Data {
	var triples []rdf.Triple
	d := GenerateTo(cfg, func(t rdf.Triple) { triples = append(triples, t) })
	d.Triples = triples
	return d
}

// GenerateTo produces the dataset Generate does, handing each triple to
// emit as it is made instead of holding the graph; the returned Data
// carries the entity pools only. The same Config emits the same triples in
// the same order.
func GenerateTo(cfg Config, emit func(rdf.Triple)) *Data {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	nUsers := scaled(1000, cfg.Scale, 50)
	nProducts := scaled(250, cfg.Scale, 30)
	nReviews := scaled(1000, cfg.Scale, 40)
	nOffers := scaled(120, cfg.Scale, 20)
	nRetailers := scaled(12, cfg.Scale, 4)
	nWebsites := scaled(50, cfg.Scale, 10)
	nPurchases := nUsers / 4
	if nPurchases < 10 {
		nPurchases = 10
	}
	const (
		nCities     = 60
		nCountries  = 25
		nTopics     = 50
		nSubGenres  = 25
		nCategories = 15
		nAgeGroups  = 9
		nRoles      = 3
		nLanguages  = 5
	)

	pool := func(class string, n int) []rdf.Term {
		out := make([]rdf.Term, n)
		for i := range out {
			out[i] = entity(class, i)
		}
		return out
	}
	d := &Data{Pools: map[string][]rdf.Term{
		"User":            pool("User", nUsers),
		"Product":         pool("Product", nProducts),
		"Review":          pool("Review", nReviews),
		"Offer":           pool("Offer", nOffers),
		"Retailer":        pool("Retailer", nRetailers),
		"Purchase":        pool("Purchase", nPurchases),
		"Website":         pool("Website", nWebsites),
		"City":            pool("City", nCities),
		"Country":         pool("Country", nCountries),
		"Topic":           pool("Topic", nTopics),
		"SubGenre":        pool("SubGenre", nSubGenres),
		"ProductCategory": pool("ProductCategory", nCategories),
		"AgeGroup":        pool("AgeGroup", nAgeGroups),
		"Role":            pool("Role", nRoles),
		"Language":        pool("Language", nLanguages),
	}}
	users := d.Pools["User"]
	products := d.Pools["Product"]
	reviews := d.Pools["Review"]
	offers := d.Pools["Offer"]
	retailers := d.Pools["Retailer"]
	purchases := d.Pools["Purchase"]
	websites := d.Pools["Website"]
	cities := d.Pools["City"]
	countries := d.Pools["Country"]
	topics := d.Pools["Topic"]
	subGenres := d.Pools["SubGenre"]
	categories := d.Pools["ProductCategory"]
	ageGroups := d.Pools["AgeGroup"]
	roles := d.Pools["Role"]
	languages := d.Pools["Language"]

	add := func(s, pr, o rdf.Term) { emit(rdf.Triple{S: s, P: pr, O: o}) }
	pick := func(pool []rdf.Term) rdf.Term { return pool[rng.Intn(len(pool))] }
	chance := func(pct int) bool { return rng.Intn(100) < pct }
	lit := func(format string, args ...any) rdf.Term {
		return rdf.NewLiteral(fmt.Sprintf(format, args...))
	}

	// socialUsers: the ~40 % of users that have friendOf out-edges; other
	// roles (directors) draw from this pool so path queries have matches.
	var socialUsers []rdf.Term

	// --- users ---
	for i, u := range users {
		social := i%5 < 2 // 40 %
		if social {
			socialUsers = append(socialUsers, u)
			nFriends := 80 + rng.Intn(55) // ≈ 0.41·|G| overall
			for j := 0; j < nFriends; j++ {
				add(u, pFriendOf, pick(users))
			}
		}
		if i%20 < 17 { // 85 % follow others
			nFollows := 25 + rng.Intn(25) // ≈ 0.30·|G| overall
			for j := 0; j < nFollows; j++ {
				add(u, pFollows, pick(users))
			}
		}
		if i%25 < 6 { // 24 % like products (OS follows|likes ≈ 0.24)
			for j, n := 0, 1+rng.Intn(7); j < n; j++ {
				add(u, pLikes, pick(products))
			}
		}
		if chance(30) {
			for j, n := 0, 1+rng.Intn(3); j < n; j++ {
				add(u, pSubscribes, pick(websites))
			}
		}
		if chance(90) { // OS friendOf|email ≈ 0.9
			add(u, pEmail, lit("user%d@example.org", i))
		}
		if chance(50) { // OS friendOf|age ≈ 0.5
			add(u, pAge, pick(ageGroups))
		}
		if chance(5) { // OS friendOf|jobTitle ≈ 0.05
			add(u, pJobTitle, lit("job%d", rng.Intn(40)))
		}
		if chance(70) {
			add(u, pGender, lit([]string{"male", "female"}[rng.Intn(2)]))
		}
		if chance(60) {
			add(u, pGivenName, lit("Given%d", rng.Intn(500)))
		}
		if chance(60) {
			add(u, pFamilyName, lit("Family%d", rng.Intn(500)))
		}
		if chance(60) {
			add(u, pNationality, pick(countries))
		}
		if chance(40) {
			add(u, pLocation, pick(cities))
		}
		if i%200 == 0 { // SS email|faxNumber < 0.01
			add(u, pFaxNumber, lit("+1-555-%04d", rng.Intn(10000)))
		}
		if chance(5) { // OS follows|homepage ≈ 0.05
			add(u, pHomepage, pick(websites))
		}
		if chance(50) {
			add(u, pType, pick(roles))
		}
	}

	// --- purchases (each owned by one user) ---
	for i, pu := range purchases {
		buyer := users[(i*4+rng.Intn(4))%nUsers]
		add(buyer, pMakesPurch, pu)
		add(pu, pPurchaseFor, pick(products))
		add(pu, pPurchaseDate, rdf.NewTypedLiteral(
			fmt.Sprintf("2015-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28)), rdf.XSDDate))
	}

	// --- products ---
	for i, pr := range products {
		add(pr, pType, pick(categories))
		for j, n := 0, 1+rng.Intn(2); j < n; j++ {
			add(pr, pHasGenre, pick(subGenres))
		}
		if chance(50) {
			add(pr, pCaption, lit("caption %d", i))
		}
		if chance(40) {
			add(pr, pDescription, lit("description of product %d", i))
		}
		if chance(30) {
			add(pr, pKeywords, lit("keywords %d", rng.Intn(100)))
		}
		if chance(20) {
			add(pr, pContentRat, lit("rating-%d", rng.Intn(5)))
		}
		if chance(20) {
			add(pr, pContentSize, rdf.NewInteger(int64(1+rng.Intn(5000))))
		}
		if chance(80) {
			add(pr, pTitle, lit("title %d", i))
		}
		if chance(60) {
			for j, n := 0, 1+rng.Intn(3); j < n; j++ {
				add(pr, pTag, pick(topics))
			}
		}
		if chance(40) {
			add(pr, pPublisher, lit("publisher%d", rng.Intn(30)))
		}
		if chance(30) { // products have a language; users never do (ST-8)
			add(pr, pLanguage, pick(languages))
		}
		if chance(30) {
			add(pr, pText, lit("text of %d", i))
		}
		if chance(4) { // OS likes|trailer < 0.01 overall
			add(pr, pTrailer, lit("http://cdn.example.org/trailer%d.mp4", i))
		}
		if chance(10) {
			add(pr, pDirector, pick(socialUsers)) // directors have friends
		}
		if chance(10) {
			add(pr, pEditor, pick(users))
		}
		if chance(20) {
			add(pr, pAuthor, pick(users))
		}
		if chance(15) {
			add(pr, pActor, pick(users))
			add(pr, pActor, pick(users))
		}
		if chance(8) { // SO friendOf|artist ≈ low
			add(pr, pArtist, pick(users))
		}
		if chance(5) {
			add(pr, pConductor, pick(users))
		}
		if chance(10) {
			add(pr, pHomepage, pick(websites))
		}
	}

	// --- reviews ---
	for i, rv := range reviews {
		add(pick(products), pHasReview, rv)
		add(rv, pRevTitle, lit("review %d", i))
		add(rv, pTotalVotes, rdf.NewInteger(int64(rng.Intn(500))))
		add(rv, pReviewer, pick(users))
	}

	// --- offers ---
	for i, of := range offers {
		add(retailers[i%nRetailers], pOffers, of)
		for j, n := 0, 1+rng.Intn(2); j < n; j++ {
			add(of, pIncludes, pick(products))
		}
		if chance(95) {
			add(of, pPrice, rdf.NewTypedLiteral(
				fmt.Sprintf("%d.%02d", 1+rng.Intn(500), rng.Intn(100)), rdf.XSDDecimal))
		}
		if chance(95) {
			add(of, pSerial, rdf.NewInteger(int64(100000+rng.Intn(900000))))
		}
		if chance(95) {
			add(of, pValidFrom, rdf.NewTypedLiteral("2015-01-01", rdf.XSDDate))
		}
		if chance(95) {
			add(of, pValidThrough, rdf.NewTypedLiteral("2016-01-01", rdf.XSDDate))
		}
		if chance(95) {
			add(of, pEligQuant, rdf.NewInteger(int64(1+rng.Intn(10))))
		}
		if chance(95) {
			add(of, pEligRegion, pick(countries))
		}
		if chance(95) {
			add(of, pPriceValid, rdf.NewTypedLiteral("2015-12-31", rdf.XSDDate))
		}
	}

	// --- retailers, websites, cities ---
	for i, rt := range retailers {
		add(rt, pLegalName, lit("Retailer %d Inc.", i))
	}
	for i, ws := range websites {
		add(ws, pURL, lit("http://site%d.example.org/", i))
		add(ws, pHits, rdf.NewInteger(int64(rng.Intn(1000000))))
		if chance(60) {
			add(ws, pLanguage, pick(languages))
		}
	}
	for _, ct := range cities {
		add(ct, pParentCtry, pick(countries))
	}

	return d
}
