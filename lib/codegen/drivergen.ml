open Splice_syntax
open Splice_sis
open Splice_hdl.Emit

let add_words b ws =
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_char b ' ';
      add b w)
    ws

let add_c_type b (io : Spec.io) =
  add_words b io.Spec.type_words;
  if io.Spec.is_pointer then add b " *"

let add_param_decl b (io : Spec.io) =
  add_c_type b io;
  if not io.Spec.is_pointer then Buffer.add_char b ' ';
  add b io.io_name

let add_prototype b (f : Spec.func) =
  (match f.Spec.output with None -> add b "void" | Some o -> add_c_type b o);
  Buffer.add_char b ' ';
  add b f.Spec.name;
  Buffer.add_char b '(';
  List.iteri
    (fun i io ->
      if i > 0 then add b ", ";
      add_param_decl b io)
    f.Spec.inputs;
  if f.Spec.instances > 1 then
    add b (if f.Spec.inputs = [] then "int inst_index" else ", int inst_index")
  else if f.Spec.inputs = [] then add b "void";
  Buffer.add_char b ')'

let prototype f = render (fun b -> add_prototype b f)

let macro_name = function 1 -> "WRITE_SINGLE" | 2 -> "WRITE_DOUBLE" | 4 -> "WRITE_QUAD" | _ -> "WRITE_BURST"
let read_macro = function 1 -> "READ_SINGLE" | 2 -> "READ_DOUBLE" | 4 -> "READ_QUAD" | _ -> "READ_BURST"

let struct_words_per_elem w (io : Spec.io) =
  List.fold_left
    (fun acc (_, (i : Ctype.info)) -> acc + ((i.Ctype.width + w - 1) / w))
    0 io.Spec.fields

(* an io's word count: static, or implicit in the index parameter named *)
type words = Static of int | Implicit of string

let words spec (io : Spec.io) =
  match io.Spec.count with
  | Some (Ast.Var v) -> Implicit v
  | count ->
      let elems = match count with Some (Ast.Fixed n) -> n | _ -> 1 in
      Static (Plan.xfer_of_io spec Plan.In io ~values:(fun _ -> elems)).Plan.words

(* the word count of an implicit transfer: a C expression over the index
   parameter [v] *)
let add_words_expr b spec (io : Spec.io) v =
  let w = spec.Spec.bus_width in
  let ew = io.Spec.io_width in
  let scaled k =
    add b "(unsigned)";
    add b v;
    add b " * ";
    add_int b k;
    Buffer.add_char b 'u'
  in
  if io.Spec.fields <> [] then scaled (struct_words_per_elem w io)
  else if ew > w then scaled ((ew + w - 1) / w)
  else if Spec.effective_packed spec io then begin
    add b "((unsigned)";
    add b v;
    add b " + ";
    add_int b ((w / ew) - 1);
    add b "u) / ";
    add_int b (w / ew);
    Buffer.add_char b 'u'
  end
  else begin
    add b "(unsigned)";
    add b v
  end

(* one transfer macro per chunk: [MACRO(func_addr, <ptr> + off);] *)
let add_chunks b spec macro words add_ptr =
  let off = ref 0 in
  List.iter
    (fun size ->
      add b "  ";
      add b (macro size);
      add b "(func_addr, ";
      add_ptr ();
      add b " + ";
      add_int b !off;
      add b ");\n";
      off := !off + size)
    (Plan.chunk_words ~burst:spec.Spec.burst ~max_burst_words:4 words)

let add_dma b macro add_ptr add_count =
  add b "  ";
  add b macro;
  add b "(func_addr, ";
  add_ptr ();
  add b ", ";
  add_count ();
  add b ");\n"

let emit_write_chunks b spec (io : Spec.io) =
  let src () =
    add b (if io.Spec.is_pointer then "(const uint32_t *)" else "(const uint32_t *)&");
    add b io.io_name
  in
  match words spec io with
  | Static n ->
      if io.Spec.is_dma then
        add_dma b "WRITE_DMA" src (fun () ->
            add_int b n;
            Buffer.add_char b 'u')
      else add_chunks b spec macro_name n src
  | Implicit v ->
      let words_expr () = add_words_expr b spec io v in
      if io.Spec.is_dma then add_dma b "WRITE_DMA" src words_expr
      else begin
        add b "  { /* ";
        add b io.io_name;
        add b ": variable-length transfer */\n    unsigned w, words = ";
        words_expr ();
        add b ";\n";
        if spec.Spec.burst then begin
          add b "    for (w = 0; w + 4 <= words; w += 4)\n      WRITE_QUAD(func_addr, ";
          src ();
          add b " + w);\n    for (; w < words; ++w)\n"
        end
        else add b "    for (w = 0; w < words; ++w)\n";
        add b "      WRITE_SINGLE(func_addr, ";
        src ();
        add b " + w);\n  }\n"
      end

(* the read stores through [(uint32_t * )dst]: [dst] is a pointer
   parameter's name, [result] or [&result] *)
let emit_read_chunks b spec ~dst (o : Spec.io) =
  let add_dst () =
    add b "(uint32_t *)";
    add b dst
  in
  match words spec o with
  | Static n ->
      if o.Spec.is_dma then
        add_dma b "READ_DMA" add_dst (fun () ->
            add_int b n;
            Buffer.add_char b 'u')
      else add_chunks b spec read_macro n add_dst
  | Implicit v ->
      let words_expr () = add_words_expr b spec o v in
      if o.Spec.is_dma then add_dma b "READ_DMA" add_dst words_expr
      else begin
        add b "  { unsigned w, words = ";
        words_expr ();
        add b ";\n    for (w = 0; w < words; ++w)\n      READ_SINGLE(func_addr, ";
        add_dst ();
        add b " + w);\n  }\n"
      end

let add_driver_function b (spec : Spec.t) (f : Spec.func) =
  let name = f.Spec.name in
  let id_macro = String.uppercase_ascii name ^ "_ID" in
  add b "/* ID used to target ";
  add b name;
  add b " */\n#define ";
  add b id_macro;
  Buffer.add_char b ' ';
  add_int b f.Spec.func_id;
  add b "\n\n/* Driver used to activate ";
  add b name;
  add b " in HW";
  if f.Spec.instances > 1 then begin
    add b " (";
    add_int b f.Spec.instances;
    add b " hardware instances)"
  end;
  add b " */\n";
  add_prototype b f;
  add b "\n{\n";
  (* locals *)
  (match f.Spec.output with
  | Some o when o.Spec.is_pointer ->
      add b "  /* multi-value output: caller must free() the result (§6.1.1) */\n  ";
      add_c_type b o;
      add b "result = (";
      add_c_type b o;
      add b ")malloc(sizeof(*result) * (";
      (match o.Spec.count with
      | Some (Ast.Fixed n) -> add_int b n
      | Some (Ast.Var v) ->
          add b "(unsigned)";
          add b v
      | None -> Buffer.add_char b '1');
      add b "));\n"
  | Some o ->
      add b "  ";
      add_words b o.Spec.type_words;
      add b " result;\n"
  | None -> ());
  add b "  uintptr_t func_addr;\n\n";
  add b "  /* Determine the address of the function";
  if f.Spec.instances > 1 then add b " instance";
  add b " */\n  func_addr = SET_ADDRESS(";
  add b id_macro;
  if f.Spec.instances > 1 then add b " + inst_index";
  add b ");\n\n";
  (* input transfers, in declaration order *)
  List.iter
    (fun (io : Spec.io) ->
      (match io.Spec.count with
      | None -> add b "  /* Transfer one value of '"
      | Some (Ast.Fixed n) ->
          add b "  /* Transfer ";
          add_int b n;
          add b " value(s) of '"
      | Some (Ast.Var v) ->
          add b "  /* Transfer ";
          add b v;
          add b " value(s) of '");
      add b io.io_name;
      add b "' */\n";
      emit_write_chunks b spec io)
    f.Spec.inputs;
  if f.Spec.inputs = [] then begin
    add b "  /* No inputs: trigger the function with a command write */\n";
    add b "  { uint32_t go = 0; WRITE_SINGLE(func_addr, &go); }\n"
  end;
  (* wait + output *)
  if f.Spec.nowait then add b "\n  /* nowait function: return without synchronising */\n"
  else begin
    if spec.Spec.interrupts then begin
      add b "\n  /* Interrupt-driven synchronisation (%interrupt_support true) */\n";
      add b "  SPLICE_WAIT_FOR_IRQ(func_addr);\n\n"
    end
    else begin
      add b "\n  /* Wait for calculations to complete */\n";
      add b "  WAIT_FOR_RESULTS(func_addr);\n\n"
    end;
    (* read back by-reference parameters into the caller's arrays (§10.2) *)
    List.iter
      (fun (io : Spec.io) ->
        add b "  /* Read back updated '";
        add b io.Spec.io_name;
        add b "' (pass-by-reference) */\n";
        emit_read_chunks b spec ~dst:io.Spec.io_name io)
      (Spec.readbacks f);
    match f.Spec.output with
    | Some o ->
        add b "  /* Grab result from hardware */\n";
        emit_read_chunks b spec ~dst:(if o.Spec.is_pointer then "result" else "&result") o;
        add b "\n  return result;\n"
    | None ->
        if Spec.readbacks f = [] then begin
          add b "  /* Blocking call: confirm completion with an ack read */\n";
          add b "  { uint32_t ack; READ_SINGLE(func_addr, &ack); (void)ack; }\n"
        end
  end;
  add b "}\n"

let driver_function spec f = render (fun b -> add_driver_function b spec f)

let add_header_file b (spec : Spec.t) =
  let dev = spec.Spec.device_name in
  let guard = String.concat "" [ "SPLICE_"; String.uppercase_ascii dev; "_DRIVER_H" ] in
  add b "/* ";
  add b dev;
  add b "_driver.h -- driver prototypes for device ";
  add b dev;
  add b
    " (Fig 8.7)\n\
    \ * Generated by Splice; calling conventions match the original\n\
    \ * interface declarations (§3.1.1). */\n";
  add b "#ifndef ";
  add b guard;
  add b "\n#define ";
  add b guard;
  add b "\n\n";
  List.iter
    (fun (name, (info : Ctype.info)) ->
      add b "typedef ";
      add b
        (if info.Ctype.width > 32 then "unsigned long long"
         else if info.Ctype.signed then "int"
         else "unsigned long");
      Buffer.add_char b ' ';
      add b name;
      add b "; /* %user_type, ";
      add_int b info.Ctype.width;
      add b " bits */\n")
    spec.Spec.user_types;
  List.iter
    (fun (name, fields) ->
      add b "typedef struct { /* %user_struct */\n";
      List.iter
        (fun (fname, (info : Ctype.info)) ->
          add b "  ";
          add b
            (if info.Ctype.width > 32 then "unsigned long long"
             else if info.Ctype.width > 16 then
               if info.Ctype.signed then "int" else "unsigned"
             else if info.Ctype.width > 8 then "short"
             else "char");
          Buffer.add_char b ' ';
          add b fname;
          add b "; /* ";
          add_int b info.Ctype.width;
          add b " bits */\n")
        fields;
      add b "} ";
      add b name;
      add b ";\n")
    spec.Spec.structs;
  if spec.Spec.user_types <> [] || spec.Spec.structs <> [] then add b "\n";
  List.iter
    (fun f ->
      add_prototype b f;
      add b ";\n")
    spec.Spec.funcs;
  add b "\n#endif /* ";
  add b guard;
  add b " */\n"

let header_file spec = render (fun b -> add_header_file b spec)

let add_source_file b (spec : Spec.t) =
  let dev = spec.Spec.device_name in
  add b "/* ";
  add b dev;
  add b "_driver.c -- Splice-generated drivers for device ";
  add b dev;
  add b " (Ch 6)\n * Target bus: ";
  add b spec.Spec.bus_name;
  add b " (";
  add_int b spec.Spec.bus_width;
  add b "-bit) */\n\n";
  add b "#include <stdint.h>\n#include <stdlib.h>\n";
  add b "#include \"splice_lib.h\"\n";
  add b "#include \"";
  add b dev;
  add b "_driver.h\"\n\n";
  if spec.Spec.interrupts then
    add b
      "/* Completion-interrupt support (§10.2): the generated arbiter raises\n\
      \ * IRQ on any CALC_DONE rising edge; reading the status register (id 0)\n\
      \ * acknowledges it. Register splice_isr with your interrupt controller. */\n\
       static volatile unsigned splice_irq_count;\n\
       void splice_isr(void) { splice_irq_count++; }\n\
       #define SPLICE_WAIT_FOR_IRQ(addr)                                   \\\n\
      \  do {                                                              \\\n\
      \    unsigned seen = splice_irq_count;                               \\\n\
      \    while (splice_irq_count == seen) { /* wfi */ }                  \\\n\
      \    { uint32_t st; READ_SINGLE(SET_ADDRESS(0), &st); (void)st; }    \\\n\
      \  } while (0)\n\n";
  List.iter
    (fun f ->
      add_driver_function b spec f;
      add b "\n")
    spec.Spec.funcs

let source_file spec = render (fun b -> add_source_file b spec)

let add_test_suite b (spec : Spec.t) =
  let dev = spec.Spec.device_name in
  add b "/* test_";
  add b dev;
  add b ".c -- skeleton software test suite (cf. Fig 8.8) */\n\n";
  add b "#include <stdio.h>\n#include <stdlib.h>\n";
  add b "#include \"";
  add b dev;
  add b "_driver.h\"\n\n";
  add b "int main(void)\n{\n";
  List.iter
    (fun (f : Spec.func) ->
      let name = f.Spec.name in
      let call () =
        add b name;
        Buffer.add_char b '(';
        List.iteri
          (fun i (io : Spec.io) ->
            if i > 0 then add b ", ";
            if io.Spec.is_pointer then begin
              add b "/* ";
              add b io.io_name;
              add b " */ NULL"
            end
            else if io.Spec.fields <> [] then begin
              (* struct scalar: a zeroed compound literal *)
              Buffer.add_char b '(';
              add_words b io.Spec.type_words;
              add b "){0}"
            end
            else Buffer.add_char b '0')
          f.Spec.inputs;
        if f.Spec.instances > 1 then add b (if f.Spec.inputs = [] then "0" else ", 0");
        Buffer.add_char b ')'
      in
      match f.Spec.output with
      | Some o when o.Spec.is_pointer ->
          (* heap-allocated multi-value result: remember to free it (§6.1.1) *)
          add b "  { ";
          add_c_type b o;
          add b "r = ";
          call ();
          add b "; printf(\"";
          add b name;
          add b " -> %p\\n\", (void *)r); free(r); }\n"
      | Some o when o.Spec.fields <> [] ->
          add b "  { ";
          add_words b o.Spec.type_words;
          add b " r = ";
          call ();
          add b "; (void)r; printf(\"";
          add b name;
          add b " -> struct\\n\"); }\n"
      | Some _ ->
          add b "  printf(\"";
          add b name;
          add b " -> %ld\\n\", (long)";
          call ();
          add b ");\n"
      | None ->
          add b "  ";
          call ();
          add b ";\n")
    spec.Spec.funcs;
  add b "  return 0;\n}\n"

let test_suite spec = render (fun b -> add_test_suite b spec)
