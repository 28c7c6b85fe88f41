# Runs `bench_ledger --report` and checks what it prints or refuses.
#
#   cmake -DBENCH_LEDGER=<exe> -DLEDGER=<ledger> -DDOC=<EXPERIMENTS.md>
#         -P report_check.cmake
#     Passes when the report on LEDGER exits 0 and every block it prints
#     (blocks are separated by blank lines) appears verbatim in DOC.
#
#   cmake -DBENCH_LEDGER=<exe> -DLEDGER=<ledger> -DINPUT=<file>
#         -DEXPECT=<regex> [-DKEEP_LINES=N]
#         [-DREPLACE_FROM=<regex> -DREPLACE_TO=<text>]
#         [-DEXTRA_ARG=<flag>] -P report_check.cmake
#     Writes INPUT from LEDGER's first KEEP_LINES lines (all by default)
#     with every REPLACE_FROM match replaced. Passes when the report on
#     INPUT, with EXTRA_ARG added, exits 2 with stderr matching EXPECT.

if(DEFINED DOC)
  execute_process(COMMAND ${BENCH_LEDGER} --report=${LEDGER}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_ledger --report=${LEDGER} exited ${status}:\n${err}")
  endif()
  file(READ ${DOC} doc)
  set(blocks 0)
  while(NOT out STREQUAL "")
    string(FIND "${out}" "\n\n" cut)
    if(cut EQUAL -1)
      set(block "${out}")
      set(out "")
    else()
      math(EXPR cut "${cut} + 1")
      string(SUBSTRING "${out}" 0 ${cut} block)
      math(EXPR cut "${cut} + 1")
      string(SUBSTRING "${out}" ${cut} -1 out)
    endif()
    math(EXPR blocks "${blocks} + 1")
    string(FIND "${doc}" "${block}" at)
    if(at EQUAL -1)
      message(NOTICE "${block}")
      message(FATAL_ERROR "${DOC} does not quote the block above, printed "
              "by `bench_ledger --report=${LEDGER}`, verbatim")
    endif()
  endwhile()
  message(STATUS "${DOC} quotes all ${blocks} report blocks")
  return()
endif()

set(limit "")
if(DEFINED KEEP_LINES)
  set(limit LIMIT_COUNT ${KEEP_LINES})
endif()
file(STRINGS ${LEDGER} lines ${limit})
list(JOIN lines "\n" text)
if(DEFINED REPLACE_FROM)
  string(REGEX REPLACE "${REPLACE_FROM}" "${REPLACE_TO}" text "${text}")
endif()
file(WRITE ${INPUT} "${text}\n")
execute_process(COMMAND ${BENCH_LEDGER} --report=${INPUT} ${EXTRA_ARG}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2 OR NOT err MATCHES "${EXPECT}")
  message(NOTICE "${err}")
  message(FATAL_ERROR "bench_ledger --report=${INPUT} ${EXTRA_ARG}: expected "
          "exit 2 and stderr matching '${EXPECT}', got exit ${status} and "
          "the stderr above")
endif()
