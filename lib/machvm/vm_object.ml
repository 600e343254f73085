type frame = {
  mutable contents : Contents.t;
  mutable dirty : bool;
  mutable access : Prot.t;
  mutable wired : bool;
}

type t = {
  id : Ids.obj_id;
  size_pages : int;
  temporary : bool;
  mutable shadow : (Ids.obj_id * int) option;
  mutable copy : Ids.obj_id option;
  mutable version : int;
  mutable page_versions : int array;
  mutable manager : Emmi.manager option;
  mutable resident : frame option array;
  mutable n_resident : int;
}

(* Both page arrays start empty and are sized on first use: most objects
   on most nodes never see a page installed (or pushed), and allocating
   them eagerly makes cluster set-up pay for every page of every
   representation. *)
let create ~id ~size_pages ~temporary ?shadow () =
  if size_pages <= 0 then invalid_arg "Vm_object.create: size_pages <= 0";
  {
    id;
    size_pages;
    temporary;
    shadow;
    copy = None;
    version = 0;
    page_versions = [||];
    manager = None;
    resident = [||];
    n_resident = 0;
  }

let frame t page =
  if page >= 0 && page < Array.length t.resident then t.resident.(page) else None

let is_resident t page = Option.is_some (frame t page)

let install t ~page fr =
  if page < 0 || page >= t.size_pages then
    invalid_arg "Vm_object.install: page out of range";
  if Array.length t.resident = 0 then t.resident <- Array.make t.size_pages None;
  if Option.is_none t.resident.(page) then
    t.n_resident <- t.n_resident + 1;
  t.resident.(page) <- Some fr

let remove t ~page =
  if is_resident t page then begin
    t.resident.(page) <- None;
    t.n_resident <- t.n_resident - 1
  end

let resident_pages t =
  let acc = ref [] in
  for page = Array.length t.resident - 1 downto 0 do
    if Option.is_some t.resident.(page) then acc := page :: !acc
  done;
  !acc

let resident_count t = t.n_resident

let page_version t page =
  if page >= 0 && page < Array.length t.page_versions then t.page_versions.(page)
  else 0

let set_page_version t page v =
  if page < 0 || page >= t.size_pages then
    invalid_arg "Vm_object.set_page_version: page out of range";
  if Array.length t.page_versions = 0 then
    t.page_versions <- Array.make t.size_pages 0;
  t.page_versions.(page) <- v

let needs_push t page = page_version t page <> t.version

let has_manager t = Option.is_some t.manager
