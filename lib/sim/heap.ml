(* Struct of arrays: entry [i] is [(keys.(i), seqs.(i), vals.(i))].
   Keeping the priorities in two unboxed [int] arrays means a push or
   a pop allocates nothing (barring growth): there is no per-entry
   record to box and no tuple to hand back on the hot path. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : Obj.t array;
  mutable size : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0 }

let size h = h.size
let capacity h = Array.length h.keys

let is_empty h = h.size = 0

(* Strict total order on entries: primary key first, then the
   insertion sequence number. Callers (the engine) assign [seq] from a
   monotonic counter, so no two live entries ever compare equal — two
   events scheduled for the same instant always pop in insertion
   order, which is what makes replays bit-identical even under heavy
   timestamp ties (property-tested in test_sim.ml). *)
let less (k1 : int) (s1 : int) k2 s2 = k1 < k2 || (k1 = k2 && s1 < s2)

(* Vacated value slots hold this immediate, so popped values do not
   stay reachable from the backing array. Values are stored as [Obj.t]
   in an ordinary (never flat-float) array and [size] guards every
   read, so the placeholder is never observed as an ['a]. *)
let vacant = Obj.repr 0

let grow h =
  let cap = Array.length h.keys in
  let new_cap = if cap = 0 then 64 else cap * 2 in
  let keys = Array.make new_cap 0 in
  let seqs = Array.make new_cap 0 in
  let vals = Array.make new_cap vacant in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

(* Both sifts move a hole rather than swapping entries: parents (or
   children) shift into the hole until the entry being placed fits,
   and only then is it written, once. *)
let push h ~key ~seq value =
  if h.size = Array.length h.keys then grow h;
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less key seq keys.(parent) seqs.(parent) then begin
      keys.(!i) <- keys.(parent);
      seqs.(!i) <- seqs.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else continue := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  vals.(!i) <- Obj.repr value

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty heap";
  h.keys.(0)

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let root = vals.(0) in
  let last = h.size - 1 in
  h.size <- last;
  let key = keys.(last) and seq = seqs.(last) and value = vals.(last) in
  vals.(last) <- vacant;
  if last > 0 then begin
    (* Sift the hole left at the root down, then drop the former last
       entry into it. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let left = (2 * !i) + 1 in
      if left >= last then continue := false
      else begin
        let right = left + 1 in
        let child =
          if right < last && less keys.(right) seqs.(right) keys.(left) seqs.(left)
          then right
          else left
        in
        if less keys.(child) seqs.(child) key seq then begin
          keys.(!i) <- keys.(child);
          seqs.(!i) <- seqs.(child);
          vals.(!i) <- vals.(child);
          i := child
        end
        else continue := false
      end
    done;
    keys.(!i) <- key;
    seqs.(!i) <- seq;
    vals.(!i) <- value
  end;
  (Obj.obj root : 'a)

let pop h =
  if h.size = 0 then None
  else
    let key = h.keys.(0) and seq = h.seqs.(0) in
    Some (key, seq, pop_min h)

let peek_key h = if h.size = 0 then None else Some (min_key h)

let clear h =
  Array.fill h.vals 0 h.size vacant;
  h.size <- 0
