(* What one workload run found: attempts, failures with the first few
   reasons, named metrics with units, and header facts for the result
   file. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
  metrics : (string, float * string) Hashtbl.t;
  mutable header : (string * Trace.Json.t) list;
}

let create () =
  { attempted = 0; failed = 0; reasons = []; metrics = Hashtbl.create 64; header = [] }

let set t name unit value = Hashtbl.replace t.metrics name (value, unit)
let note t key json = t.header <- t.header @ [ (key, json) ]

let fail t reason =
  t.failed <- t.failed + 1;
  if List.length t.reasons < 5 then t.reasons <- t.reasons @ [ reason ]

(* Garbage-collector work between two [Gc.quick_stat] readings, per
   operation, and the heap's high-water mark. *)
let gc t (g0 : Gc.stat) (g1 : Gc.stat) ~ops =
  set t "gc.minor_words_per_op" "words/op" ((g1.minor_words -. g0.minor_words) /. ops);
  set t "gc.promoted_words_per_op" "words/op" ((g1.promoted_words -. g0.promoted_words) /. ops);
  set t "gc.major_collections" "1/op"
    (float_of_int (g1.major_collections - g0.major_collections) /. ops);
  set t "gc.top_heap_mb" "MB" (float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1048576.)
