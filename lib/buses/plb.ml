open Splice_sim
open Splice_sis
open Splice_syntax
open Splice_bits

let caps =
  {
    Bus_caps.name = "plb";
    widths = [ 32; 64 ];
    memory_mapped = true;
    supports_burst = true;
    supports_dma = true;
    max_burst_words = 4;
    dma_max_bytes = 256;
    pseudo_async = true;
    supports_interrupts = true; (* preliminary PLB interrupt work, §10.2 *)
  }

let engine_config =
  {
    Adapter_engine.name = "plb";
    setup_cycles = 2; (* arbitration + address phase *)
    write_word_gap = 0;
    read_word_gap = 0;
    teardown_cycles = 1; (* CE/BE release *)
    strictly_sync = false;
    dma_setup_transactions = 4; (* §9.2.1: 4 transactions to set up/tear down *)
  }

let wait_mode = `Null
let connect = Bus.connect_with_engine engine_config caps wait_mode
let check_params _ = Ok ()

let adapter_template =
  {|-- %COMP_NAME%: PLB <-> SIS native interface adapter
-- Generated by Splice on %GEN_DATE%
-- Base address: %BASE_ADDR%  Bus width: %BUS_WIDTH%  DMA: %DMA_ENABLED%
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity %COMP_NAME%_plb_interface is
  generic (
    C_BASEADDR   : std_logic_vector(31 downto 0) := %BASE_ADDR%;
    C_DWIDTH     : integer := %BUS_WIDTH%;
    C_NUM_CE     : integer := %PLB_NUM_CE%
  );
  port (
    PLB_Clk          : in  std_logic;
    PLB_Rst          : in  std_logic;
    PLB_RdReq        : in  std_logic;
    PLB_WrReq        : in  std_logic;
    PLB_RdCE         : in  std_logic_vector(C_NUM_CE-1 downto 0);
    PLB_WrCE         : in  std_logic_vector(C_NUM_CE-1 downto 0);
    PLB_BE           : in  std_logic_vector(C_DWIDTH/8-1 downto 0);
    PLB_DataIn       : in  std_logic_vector(C_DWIDTH-1 downto 0);
    PLB_DataOut      : out std_logic_vector(C_DWIDTH-1 downto 0);
    PLB_RdAck        : out std_logic;
    PLB_WrAck        : out std_logic;
    -- SIS side (Fig 4.2)
    SIS_DATA_IN        : out std_logic_vector(C_DWIDTH-1 downto 0);
    SIS_DATA_IN_VALID  : out std_logic;
    SIS_IO_ENABLE      : out std_logic;
    SIS_FUNC_ID        : out std_logic_vector(%FUNC_ID_WIDTH%-1 downto 0);
    SIS_DATA_OUT       : in  std_logic_vector(C_DWIDTH-1 downto 0);
    SIS_DATA_OUT_VALID : in  std_logic;
    SIS_IO_DONE        : in  std_logic;
    SIS_CALC_DONE      : in  std_logic_vector(%CALC_DONE_WIDTH%-1 downto 0);
    SIS_RST            : out std_logic
  );
end entity;

architecture rtl of %COMP_NAME%_plb_interface is
  signal func_id_bin : unsigned(%FUNC_ID_WIDTH%-1 downto 0);
  signal req_pending : std_logic;
begin
  SIS_RST <= PLB_Rst;

  -- one-hot RD_CE / WR_CE -> binary FUNC_ID (§4.3.2)
  onehot_to_binary : process (PLB_RdCE, PLB_WrCE)
    variable id : unsigned(%FUNC_ID_WIDTH%-1 downto 0);
  begin
    id := (others => '0');
    for i in 0 to C_NUM_CE-1 loop
      if PLB_RdCE(i) = '1' or PLB_WrCE(i) = '1' then
        id := to_unsigned(i, %FUNC_ID_WIDTH%);
      end if;
    end loop;
    func_id_bin <= id;
  end process;
  SIS_FUNC_ID <= std_logic_vector(func_id_bin);

  -- RD_REQ/WR_REQ strobes map directly onto IO_ENABLE (Fig 4.7/4.8)
  SIS_IO_ENABLE     <= PLB_RdReq or PLB_WrReq;
  SIS_DATA_IN       <= PLB_DataIn;
  SIS_DATA_IN_VALID <= PLB_WrReq or (PLB_WrCE(0) and req_pending);

  -- acknowledge mapping: IO_DONE drives the PLB acks
  PLB_WrAck   <= SIS_IO_DONE and not SIS_DATA_OUT_VALID;
  PLB_RdAck   <= SIS_DATA_OUT_VALID;
  PLB_DataOut <= SIS_DATA_OUT when func_id_bin /= 0
                 else std_logic_vector(resize(unsigned(SIS_CALC_DONE), C_DWIDTH));

  -- hold qualifiers static between request and acknowledge (§4.2.1)
  track_pending : process (PLB_Clk)
  begin
    if rising_edge(PLB_Clk) then
      if PLB_Rst = '1' then
        req_pending <= '0';
      elsif (PLB_RdReq or PLB_WrReq) = '1' then
        req_pending <= '1';
      elsif SIS_IO_DONE = '1' then
        req_pending <= '0';
      end if;
    end if;
  end process;

%DMA_LOGIC%
end architecture;
|}

let dma_logic_marker (spec : Spec.t) =
  if spec.dma then
    {|  -- DMA engine: programmed via 4 register writes (src, dst, len, go),
  -- then streams up to 256 bytes at one word per cycle (§2.3.2, §9.2.1)
  dma_engine : entity work.splice_plb_dma
    generic map (C_DWIDTH => C_DWIDTH, C_MAX_BYTES => 256)
    port map (
      Clk  => PLB_Clk,  Rst => PLB_Rst,
      Data => PLB_DataIn, Go => PLB_WrCE(0),
      Stream_Data  => SIS_DATA_IN,
      Stream_Valid => SIS_DATA_IN_VALID
    );|}
  else "  -- DMA support disabled (%dma_support false)"

let extra_markers =
  [
    ( "PLB_NUM_CE",
      fun (spec : Spec.t) -> Splice_hdl.Emit.int_to_string (spec.total_instances + 1) );
    ( "CALC_DONE_WIDTH",
      fun (spec : Spec.t) -> Splice_hdl.Emit.int_to_string (max 1 spec.total_instances) );
    ("DMA_LOGIC", dma_logic_marker);
  ]

let driver_header (spec : Spec.t) =
  String.concat ""
    [
      {|/* splice_lib.h -- PLB transaction macros for device |};
      spec.device_name;
      {| (Fig 7.2)
 * Generated by Splice. Pseudo-asynchronous: WAIT_FOR_RESULTS is a no-op
 * because PLB reads stall until the peripheral acknowledges (§6.1.1). */
#ifndef SPLICE_LIB_PLB_H
#define SPLICE_LIB_PLB_H

#include <stdint.h>

#define SPLICE_BASE_ADDR   0x|};
      Spec.base_address_hex spec;
      {|UL
#define SPLICE_WORD_BYTES  (|};
      Splice_hdl.Emit.int_to_string spec.bus_width;
      {| / 8)

/* function id -> memory-mapped register address */
#define SET_ADDRESS(id) (SPLICE_BASE_ADDR + ((uint32_t)(id) * SPLICE_WORD_BYTES))

#define WRITE_SINGLE(addr, src) \
  (*(volatile uint32_t *)(addr) = *(const uint32_t *)(src))
#define WRITE_DOUBLE(addr, src) do { /* 2-word PLB burst */ \
  WRITE_SINGLE((addr), (const uint32_t *)(src));            \
  WRITE_SINGLE((addr), (const uint32_t *)(src) + 1); } while (0)
#define WRITE_QUAD(addr, src) do { /* 4-word PLB burst */ \
  WRITE_DOUBLE((addr), (const uint32_t *)(src));          \
  WRITE_DOUBLE((addr), (const uint32_t *)(src) + 2); } while (0)

#define READ_SINGLE(addr, dst) \
  (*(uint32_t *)(dst) = *(volatile uint32_t *)(addr))
#define READ_DOUBLE(addr, dst) do { \
  READ_SINGLE((addr), (uint32_t *)(dst));       \
  READ_SINGLE((addr), (uint32_t *)(dst) + 1); } while (0)
#define READ_QUAD(addr, dst) do { \
  READ_DOUBLE((addr), (uint32_t *)(dst));       \
  READ_DOUBLE((addr), (uint32_t *)(dst) + 2); } while (0)

/* PLB stalls reads until CALC_DONE: nothing to poll (§6.1.1) */
#define WAIT_FOR_RESULTS(addr) ((void)0)

|};
      (if spec.dma then
       {|/* DMA channel registers live in the adapter's id-0 slot */
#define SPLICE_DMA_REG(k)  (SPLICE_BASE_ADDR + 0x100 + 4 * (k))
#define WRITE_DMA(addr, src, words) do {                      \
  *(volatile uint32_t *)SPLICE_DMA_REG(0) = (uint32_t)(uintptr_t)(src);  \
  *(volatile uint32_t *)SPLICE_DMA_REG(1) = (uint32_t)(uintptr_t)(addr); \
  *(volatile uint32_t *)SPLICE_DMA_REG(2) = (uint32_t)(words);\
  *(volatile uint32_t *)SPLICE_DMA_REG(3) = 1u; /* go */      \
  while (*(volatile uint32_t *)SPLICE_DMA_REG(3)) { }         \
} while (0)
#define READ_DMA(addr, dst, words) do {                       \
  *(volatile uint32_t *)SPLICE_DMA_REG(0) = (uint32_t)(uintptr_t)(addr); \
  *(volatile uint32_t *)SPLICE_DMA_REG(1) = (uint32_t)(uintptr_t)(dst);  \
  *(volatile uint32_t *)SPLICE_DMA_REG(2) = (uint32_t)(words);\
  *(volatile uint32_t *)SPLICE_DMA_REG(3) = 1u; /* go */      \
  while (*(volatile uint32_t *)SPLICE_DMA_REG(3)) { }         \
} while (0)|}
     else "/* DMA disabled for this device (%dma_support false) */");
      {|
#endif /* SPLICE_LIB_PLB_H */
|};
    ]

(* ------------------------------------------------------------------ *)
(* Native signal mirror (Figs 4.5-4.8)                                 *)
(* ------------------------------------------------------------------ *)

module Native = struct
  type t = {
    rd_req : Signal.t;
    wr_req : Signal.t;
    rd_ce : Signal.t;
    wr_ce : Signal.t;
    be : Signal.t;
    rd_ack : Signal.t;
    wr_ack : Signal.t;
    data_in : Signal.t;
    data_out : Signal.t;
  }

  let signals t =
    [
      t.rd_req; t.wr_req; t.rd_ce; t.wr_ce; t.be; t.rd_ack; t.wr_ack;
      t.data_in; t.data_out;
    ]
end

let native_mirror kernel ~ce_slots (sis : Sis_if.t) =
  let width = Signal.width sis.Sis_if.data_in in
  let s name w = Signal.create ~name:("plb." ^ name) w in
  let n =
    {
      Native.rd_req = s "RD_REQ" 1;
      wr_req = s "WR_REQ" 1;
      rd_ce = s "RD_CE" ce_slots;
      wr_ce = s "WR_CE" ce_slots;
      be = s "BE" (width / 8);
      rd_ack = s "RD_ACK" 1;
      wr_ack = s "WR_ACK" 1;
      data_in = s "DATA_IN" width;
      data_out = s "DATA_OUT" width;
    }
  in
  (* transaction-in-flight tracking so CE/BE stay asserted until the ack,
     as Figs 4.5/4.6 require *)
  let in_read = ref false in
  let in_write = ref false in
  let comb () =
    let io_en = Signal.get_bool sis.Sis_if.io_enable in
    let div = Signal.get_bool sis.Sis_if.data_in_valid in
    let dov = Signal.get_bool sis.Sis_if.data_out_valid in
    let done_ = Signal.get_bool sis.Sis_if.io_done in
    let fid = Signal.get_int sis.Sis_if.func_id in
    let writing = (io_en && div) || !in_write in
    let reading = (io_en && not div) || !in_read in
    Signal.set_bool n.Native.rd_req (io_en && not div);
    Signal.set_bool n.Native.wr_req (io_en && div);
    let hot active =
      if active && fid < ce_slots then Bits.one_hot ~width:ce_slots fid
      else Bits.zero ce_slots
    in
    Signal.set n.Native.rd_ce (hot reading);
    Signal.set n.Native.wr_ce (hot writing);
    Signal.set n.Native.be
      (if writing || reading then Bits.ones (width / 8) else Bits.zero (width / 8));
    Signal.set_bool n.Native.wr_ack (done_ && not dov);
    Signal.set_bool n.Native.rd_ack dov;
    Signal.set n.Native.data_in (Signal.get sis.Sis_if.data_in);
    Signal.set n.Native.data_out (Signal.get sis.Sis_if.data_out)
  in
  let comp = ref None in
  (* the flags are a function of the four lines it reads: a second step
     on the same lines changes nothing, so it sleeps until one moves *)
  let sleep =
    Sleep.create
      ~wake_on:
        [
          sis.Sis_if.io_enable; sis.Sis_if.data_in_valid;
          sis.Sis_if.data_out_valid; sis.Sis_if.io_done;
        ]
      ()
  in
  (* [comb] reads the two in-flight flags: announce when either flips *)
  let seq () =
    let io_en = Signal.get_bool sis.Sis_if.io_enable in
    let div = Signal.get_bool sis.Sis_if.data_in_valid in
    let dov = Signal.get_bool sis.Sis_if.data_out_valid in
    let done_ = Signal.get_bool sis.Sis_if.io_done in
    let was_read = !in_read and was_write = !in_write in
    if io_en && div && not done_ then in_write := true;
    if io_en && (not div) && not dov then in_read := true;
    if done_ && not dov then in_write := false;
    if dov then in_read := false;
    if !in_read <> was_read || !in_write <> was_write then
      Option.iter Component.rearm !comp;
    Sleep.sleep sleep
  in
  let c =
    Component.make
      ~comb:
        ( [
            sis.Sis_if.io_enable; sis.Sis_if.data_in_valid;
            sis.Sis_if.data_out_valid; sis.Sis_if.io_done; sis.Sis_if.func_id;
            sis.Sis_if.data_in; sis.Sis_if.data_out;
          ],
          comb )
      ~seq ~sleep
      ~reset:(fun () ->
        in_read := false;
        in_write := false)
      "plb-native-mirror"
  in
  comp := Some c;
  Kernel.add kernel c;
  n
