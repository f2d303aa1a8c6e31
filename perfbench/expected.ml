(* Recorded outputs per instance seed (1..10), from runs checked by
   Verify.check / the no-lost-acks probe / zero differential violations.
   A block whose output differs from its seed's entry is a failed
   operation. *)

(* Optimal objective of solve_paper (its instance seed is fixed). *)
let solve_paper = [ (1, "442") ]

(* Serve.Daemon.signature after one serve_file block. *)
let serve_file =
  [
    (1, "4c668fedc20bcf017c2df10712b52048");
    (2, "9a6b5942f745c634739c7b80b726aa4e");
    (3, "80e18e63178a5eee40cd691e8a5b8e11");
    (4, "978884c76f0eef7a914798541de7b9e1");
    (5, "497e5c1561d2ac4651c60b086a1230c1");
    (6, "a352b3a389b09aa4b3b46c04afdb86c8");
    (7, "5ef824834c19d5df140bec137390c1dd");
    (8, "f05525252147acc3e611190a8f586e63");
    (9, "ede33407b73392fb5e81f9fa0212b2ec");
    (10, "dce5152a02af04da50a8c7454484e699");
  ]

(* Digest of the report lines of one caching_drift block. *)
let caching_drift =
  [
    (1, "cf5b78de21609cc4adddb2dee1e74d45");
    (2, "787b76fb8f0e40869298c99fec317763");
    (3, "f78a5640eff0e99d086548dd7b9bc2b0");
    (4, "adba32f723a0ee8c4c8fdc118a471da1");
    (5, "8a932d367533ff3ab46126a65cac3596");
    (6, "13b70247737014baa82dcf9b290fed9c");
    (7, "fde1f91789a8d31669839ee3aa9ae2d6");
    (8, "5788e00ecb08066159a7927874fa5d32");
    (9, "e656f14e7f6d11f2ca7257a91122c867");
    (10, "d9520acc57557ee89835fe50b219baa6");
  ]
